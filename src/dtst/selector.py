"""Visual token selector: importance scoring, hard top-k, Gumbel relaxation.

Scoring follows a per-token quadratic attention form: for token t, each of H
head slices computes dot(q_h, k_h) / sqrt(d/H) with q = t W_q and k = t W_k;
the head scores are averaged and a softmax across the M tokens of each batch
item turns them into a distribution.

The differentiable selection perturbs log-scores with Gumbel noise, takes a
hard top-k of the perturbed logits for the forward pass, and routes gradients
through the softmax relaxation only (straight-through).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError
from .tensor import Tensor

SCORE_FLOOR = 1e-12

# Config-level selector positions: LAST places the selector in front of the
# final encoder block (the reduced sequence is encoded once more);
# SECOND_TO_LAST places it in front of the block before that (the reduced
# sequence is encoded twice).
POSITION_LAST = "last"
POSITION_SECOND_TO_LAST = "second_to_last"
POSITIONS = (POSITION_LAST, POSITION_SECOND_TO_LAST)


@dataclass
class SelectorConfig:
    k: int
    temperature: float = 1.0
    num_heads: int = 2
    position: str = POSITION_LAST
    noise_enabled: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"SelectorConfig.K must be >= 1, got {self.k}")
        if self.temperature <= 0:
            raise ConfigError(f"SelectorConfig.temperature must be > 0, got {self.temperature}")
        if self.num_heads < 1:
            raise ConfigError(f"SelectorConfig.num_heads must be >= 1, got {self.num_heads}")
        if self.position not in POSITIONS:
            raise ConfigError(f"SelectorConfig.position must be one of {POSITIONS}, "
                              f"got {self.position!r}")


@dataclass
class SelectorParams:
    w_q: Tensor  # [d, d]
    w_k: Tensor  # [d, d]


@dataclass
class ScoreVector:
    """Per-item score distribution over patch tokens, optionally perturbed."""

    s: Tensor               # [B, M], rows sum to 1
    perturbed: Tensor = None  # [B, M] perturbed logits, set by perturbed_topk


def init_selector_params(d: int, rng: np.random.Generator) -> SelectorParams:
    bound = 1.0 / np.sqrt(d)
    return SelectorParams(
        w_q=Tensor(rng.uniform(-bound, bound, size=(d, d)), requires_grad=True),
        w_k=Tensor(rng.uniform(-bound, bound, size=(d, d)), requires_grad=True),
    )


def score_tokens(patch_tokens: Tensor, params: SelectorParams, num_heads: int) -> ScoreVector:
    """Importance distribution over the M patch tokens of each item, as one
    tape entry from the tokens and both projections to the softmax."""
    b, m, d = patch_tokens.shape
    if d % num_heads != 0:
        raise ConfigError(f"head count {num_heads} does not divide token width {d}")
    dh = d // num_heads
    x2 = patch_tokens.data.reshape(b * m, d)
    q = x2 @ params.w_q.data
    k = x2 @ params.w_k.data
    per_head = (q * k).reshape(b, m, num_heads, dh).sum(axis=-1)
    per_head *= 1.0 / np.sqrt(dh)
    raw = per_head.sum(axis=-1)
    raw *= 1.0 / num_heads
    s = T.softmax_array(raw)

    def bwd(g):
        graw = T.softmax_grad(s, g)
        graw *= 1.0 / num_heads
        graw *= 1.0 / np.sqrt(dh)
        c = graw.reshape(b * m, 1)
        gq = k * c
        gk = q * c
        gx = gq @ params.w_q.data.T
        gx += gk @ params.w_k.data.T
        return gx.reshape(b, m, d), x2.T @ gq, x2.T @ gk

    return ScoreVector(s=T.make(s, (patch_tokens, params.w_q, params.w_k), bwd))


def hard_topk(scores, k: int):
    """Indices of the k largest scores, ties toward the lower index,
    returned sorted ascending by original index."""
    scores = np.asarray(scores, dtype=np.float64)
    m = scores.shape[-1]
    if k > m:
        raise ConfigError(f"K={k} exceeds token count M={m}")
    order = np.argsort(-scores, axis=-1, kind="stable")
    chosen = order[..., :k]
    return np.sort(chosen, axis=-1)


def perturbed_topk(scores: ScoreVector, cfg: SelectorConfig,
                   rng: np.random.Generator = None):
    """Gumbel-perturbed selection.

    Returns (indices [B, K], soft_weights Tensor [B, M]). The forward indices
    come from a hard top-k of the perturbed logits; gradients flow only
    through the softmax soft weights, recorded as one tape entry from the
    scores.
    """
    s = scores.s
    b, m = s.shape
    safe = np.maximum(s.data, SCORE_FLOOR)
    logits = np.log(safe)
    if cfg.noise_enabled:
        if rng is None:
            raise ContractError("noise_enabled selection needs a seeded rng")
        u = rng.uniform(size=(b, m))
        logits += -np.log(-np.log(u))
    inv_tau = 1.0 / cfg.temperature
    logits *= inv_tau
    soft = T.softmax_array(logits)

    def bwd(g):
        gl = T.softmax_grad(soft, g)
        gl *= inv_tau
        gl /= safe
        gl *= s.data > SCORE_FLOOR
        return (gl,)

    indices = hard_topk(logits, cfg.k)
    scores.perturbed = Tensor(logits)
    return indices, T.make(soft, (s,), bwd)


def select_tokens(seq, indices):
    """Keep slots 0/1 plus the chosen patch tokens, in original order.

    `seq` is a model.TokenSequence; `indices` is [B, K] of patch-slot indices
    (0-based within the patch region).
    """
    from .model import TokenSequence  # cycle: model builds sequences

    idx = np.asarray(indices, dtype=np.int64)
    b, t, _ = seq.tokens.shape
    m = t - 2
    if idx.ndim == 1:
        idx = np.broadcast_to(idx, (b, idx.shape[0])).copy()
    for row in idx:
        if len(set(row.tolist())) != len(row):
            raise ContractError(f"duplicate selection indices {row.tolist()}")
        if row.min() < 0 or row.max() >= m:
            raise ContractError(f"selection index out of range in {row.tolist()}")
    slots = np.concatenate([np.broadcast_to([0, 1], (b, 2)), idx + 2], axis=1)
    tokens = T.gather_tokens(seq.tokens, slots)
    origin = np.take_along_axis(seq.origin_index, idx, axis=1)
    return TokenSequence(tokens=tokens, view_labels=seq.view_labels, origin_index=origin)


def straight_through_weights(soft: Tensor, indices) -> Tensor:
    """Multipliers for the selected tokens: exactly 1 in the forward pass,
    gradient equal to that of the soft weights."""
    w = _gather_rows(soft, indices)
    return w - Tensor(w.data) + Tensor(np.ones_like(w.data))


def _gather_rows(soft: Tensor, indices) -> Tensor:
    """soft [B, M], indices [B, K] -> [B, K]."""
    idx = np.asarray(indices, dtype=np.int64)
    b, k = idx.shape
    flat = T.reshape(soft, (b, soft.shape[1], 1))
    picked = T.gather_tokens(flat, idx)          # [B, K, 1]
    return T.reshape(picked, (b, k))
