"""Token selector: logit oracle, hard top-k, Gumbel-perturbed selection."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtst.errors import ConfigError, ContractError
from dtst.model import ModelConfig
from dtst.selector import (SelectorConfig, hard_topk, perturbed_topk,
                           score_tokens, select_tokens)
from dtst.tensor import Tensor

RNG = np.random.default_rng(42)


def direct_scores(tokens, num_heads):
    """Independent numpy evaluation of the logit formula: per-head
    self-dot-products scaled by 1/sqrt(d/H), averaged over the heads."""
    b, m, d = tokens.shape
    dh = d // num_heads
    raw = np.zeros((b, m))
    for h in range(num_heads):
        sl = slice(h * dh, (h + 1) * dh)
        raw += (tokens[..., sl] * tokens[..., sl]).sum(axis=-1) / np.sqrt(dh)
    return raw / num_heads


def test_score_tokens_matches_direct_formula():
    b, m, d, h = 1, 4, 4, 1
    tokens = RNG.normal(size=(b, m, d))
    got = score_tokens(tokens, h)
    assert isinstance(got, np.ndarray) and got.shape == (b, m)
    assert np.allclose(got, direct_scores(tokens, h), atol=1e-12)


def test_score_tokens_multihead_matches_direct_formula():
    b, m, d, h = 3, 7, 8, 2
    tokens = RNG.normal(size=(b, m, d))
    assert np.allclose(score_tokens(tokens, h), direct_scores(tokens, h), atol=1e-12)


def test_score_tokens_head_mismatch():
    # the model config owns the check that the selector's heads divide the
    # token width
    with pytest.raises(ConfigError, match="divide"):
        ModelConfig(num_identities=2, embed_dim=6, selector=SelectorConfig(k=1, num_heads=4))


def test_zero_tokens_give_uniform_scores():
    assert np.array_equal(score_tokens(np.zeros((2, 5, 4)), 2), np.zeros((2, 5)))


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


def test_noise_off_reduces_to_hard_topk():
    logits = RNG.normal(size=(4, 8))
    assert np.array_equal(perturbed_topk(logits, 3), hard_topk(logits, 3))


def test_noise_adds_one_gumbel_draw_per_logit():
    logits = RNG.normal(size=(5, 6))
    got = perturbed_topk(logits, 2, noise=True, rng=np.random.default_rng(3))
    u = np.random.default_rng(3).uniform(size=(5, 6))
    assert np.array_equal(got, hard_topk(logits - np.log(-np.log(u)), 2))


def test_noise_requires_rng():
    with pytest.raises(ContractError, match="seeded rng"):
        perturbed_topk(np.zeros((1, 2)), 1, noise=True)


def test_gumbel_marginal_matches_scores():
    # With K=1 the chosen index follows softmax(logits) exactly (Gumbel-max
    # trick); check the empirical frequency.
    probs = np.array([0.5, 0.3, 0.15, 0.05])
    n = 20000
    idx = perturbed_topk(np.tile(np.log(probs), (n, 1)), 1, noise=True,
                         rng=np.random.default_rng(7))
    assert np.abs(np.bincount(idx[:, 0], minlength=4) / n - probs).max() < 0.02


@st.composite
def token_arrays(draw):
    """(tokens [B, M, d], heads, K) with small integer entries, so that every
    squared norm is exact; sometimes one slot scaled by 2^j, which keeps it
    exact and can make its logit lead the others by far."""
    b, m = draw(st.integers(1, 3)), draw(st.integers(2, 9))
    d = draw(st.sampled_from([4, 8]))
    seed = draw(st.integers(0, 2**32 - 1))
    x = np.random.default_rng(seed).integers(-3, 4, size=(b, m, d)).astype(np.float64)
    scaled = draw(st.none() | st.tuples(st.integers(0, m - 1), st.integers(1, 40)))
    if scaled is not None:
        x[:, scaled[0]] *= 2.0 ** scaled[1]
    return x, draw(st.sampled_from([1, 2, 4])), draw(st.integers(1, m))


_LEADING = np.zeros((1, 4, 4))
_LEADING[0, [0, 2, 3], 0] = [20.0, 0.5, 1.0]


@settings(max_examples=200, deadline=None)
@given(case=token_arrays())
@example(case=(_LEADING, 2, 2))
def test_noise_free_selection_keeps_the_stable_top_k_of_squared_norms(case):
    # a token whose logit leads the rest by more than ln(1e12) must not flatten
    # the others into a tie: in the example, slot 3 (norm 1) beats slot 1 (0)
    x, heads, k = case
    kept = perturbed_topk(score_tokens(x, heads), k)
    for row, got in zip(x, kept):
        norms = [sum(v * v for v in token) for token in row]
        order = sorted(range(len(row)), key=lambda i: (-norms[i], i))
        assert got.tolist() == sorted(order[:k])


def _toy_tokens(b=2, m=5, d=3):
    return Tensor(RNG.normal(size=(b, m + 2, d)))


def test_select_tokens_keeps_specials_and_order():
    tokens = _toy_tokens()
    kept = select_tokens(tokens, np.array([[0, 3], [4, 1]]))
    assert kept.shape == (2, 4, 3)
    assert np.allclose(kept.data[:, :2], tokens.data[:, :2])
    # selected patches appear in the order given per row
    assert np.allclose(kept.data[0, 2:], tokens.data[0, [2, 5]])
    assert np.allclose(kept.data[1, 2:], tokens.data[1, [6, 3]])


def test_select_tokens_rejects_bad_indices():
    tokens = _toy_tokens()
    with pytest.raises(ContractError, match="duplicate"):
        select_tokens(tokens, np.array([[1, 1], [0, 2]]))
    with pytest.raises(ContractError, match="out of range"):
        select_tokens(tokens, np.array([[0, 5], [0, 1]]))


def test_selector_config_validation_messages():
    with pytest.raises(ConfigError, match="K must be >= 1"):
        SelectorConfig(k=0)
    with pytest.raises(ConfigError, match="num_heads must be >= 1"):
        SelectorConfig(k=1, num_heads=0)
    with pytest.raises(ConfigError, match="position must be one of"):
        SelectorConfig(k=1, position="first")
