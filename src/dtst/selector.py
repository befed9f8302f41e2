"""Visual token selector: importance scoring, hard top-k, Gumbel relaxation.

Scoring takes each token's squared norm: the logit of token t is
||t||^2 / sqrt(H * d), and a softmax across the M tokens of each batch item
turns the logits into a distribution. The head count H only scales the
logits. Scoring has no parameters and records nothing on the tape.

Selection perturbs the log-scores with Gumbel noise when it is on and keeps
the hard top-k of the perturbed logits: a plain index choice, with no
gradient route through it. `perturbed_topk` also returns the tempered
softmax relaxation of those logits, with its gradient with respect to the
scores.
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


def score_tokens(patch_tokens, num_heads: int) -> Tensor:
    """Importance distribution [B, M] over the M patch tokens [B, M, d] of
    each item (rows sum to 1): softmax(||x||^2 / sqrt(H * d)), untracked."""
    b, m, d = patch_tokens.shape
    if d % num_heads != 0:
        raise ConfigError(f"head count {num_heads} does not divide token width {d}")
    x2 = patch_tokens.reshape(b * m, d)
    raw = np.einsum("ij,ij->i", x2, x2).reshape(b, m)
    raw *= 1.0 / np.sqrt(num_heads * d)
    return Tensor(T.softmax_array(raw))


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


def perturbed_topk(s: Tensor, cfg: SelectorConfig,
                   rng: np.random.Generator = None):
    """Gumbel-perturbed selection from the score distribution `s` [B, M].

    Returns (indices [B, K], soft_weights Tensor [B, M]). The forward indices
    come from a hard top-k of the perturbed logits; gradients flow only
    through the softmax soft weights, recorded as one tape entry from the
    scores.
    """
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

    return hard_topk(logits, cfg.k), T.make(soft, (s,), bwd)


def select_tokens(tokens: Tensor, origin_index, indices):
    """Keep slots 0/1 plus the chosen patch tokens, in the order of
    `indices` (ascending, as hard_topk returns them).

    `tokens` is [B, 2 + M, d] and `origin_index` [B, M] the grid index of
    each patch slot; `indices` is [B, K] (or [K] for every row) of patch-slot
    indices, 0-based within the patch region. Returns the reduced tokens
    [B, 2 + K, d] and the grid index of each kept patch [B, K].
    """
    idx = np.asarray(indices, dtype=np.int64)
    b, t, _ = tokens.shape
    m = t - 2
    if idx.ndim == 1:
        idx = np.broadcast_to(idx, (b, idx.shape[0])).copy()
    for row in idx:
        if len(set(row.tolist())) != len(row):
            raise ContractError(f"duplicate selection indices {row.tolist()}")
        if row.min() < 0 or row.max() >= m:
            raise ContractError(f"selection index out of range in {row.tolist()}")
    slots = np.concatenate([np.broadcast_to([0, 1], (b, 2)), idx + 2], axis=1)
    return T.gather_tokens(tokens, slots), np.take_along_axis(origin_index, idx, axis=1)
