"""Visual token selector: norm logits, optional Gumbel noise, hard top-k.

The logit of patch token t is ||t||^2 / sqrt(d). Scoring has no parameters
and records nothing on the tape.

Selection adds Gumbel noise to the logits when it is on, so that with K = 1
the kept token is a draw from softmax(logits), and keeps the hard top-k: a
plain index choice, with no gradient route through it. The kept tokens
carry their gradient back through `select_tokens`' gather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DimensionError, DomainError, check_count
from .tensor import Tensor

# Config-level selector positions, each the number of encoder blocks, counted
# from the end, that the selector runs in front of and that encode the
# reduced sequence: once for `last`, twice for `second_to_last`.
POSITIONS = {"last": 1, "second_to_last": 2}


@dataclass
class SelectorConfig:
    k: int
    position: str = "last"
    noise_enabled: bool = True

    def __post_init__(self):
        self.k = check_count(self.k, 1, ConfigError,
                             f"SelectorConfig.K must be >= 1 and an integer, got {self.k!r}")
        if not isinstance(self.position, str) or self.position not in POSITIONS:
            raise ConfigError(f"SelectorConfig.position must be one of {list(POSITIONS)}, "
                              f"got {self.position!r}")
        if not isinstance(self.noise_enabled, (bool, np.bool_)):
            raise ConfigError(f"SelectorConfig.noise_enabled must be a bool, "
                              f"got {self.noise_enabled!r}")
        self.noise_enabled = bool(self.noise_enabled)


def score_tokens(patch_tokens) -> np.ndarray:
    """Logits [B, M] of the M patch tokens [B, M, d] of each item:
    ||x||^2 / sqrt(d)."""
    if np.ndim(patch_tokens) != 3:
        raise DimensionError(f"patch tokens must be [B, M, d], got shape "
                             f"{np.shape(patch_tokens)}")
    b, m, d = patch_tokens.shape
    x2 = patch_tokens.reshape(b * m, d)
    logits = np.einsum("ij,ij->i", x2, x2).reshape(b, m)
    logits *= 1.0 / np.sqrt(d)
    return logits


def hard_topk(scores, k: int):
    """Indices of the k largest scores, ties toward the lower index,
    returned sorted ascending by original index."""
    scores = np.asarray(scores, dtype=np.float64)
    m = scores.shape[-1]
    k = check_count(k, 1, ConfigError, f"K must be an integer >= 1, got {k!r}")
    if k > m:
        raise ConfigError(f"K={k} exceeds token count M={m}")
    order = np.argsort(-scores, axis=-1, kind="stable")
    return np.sort(order[..., :k], axis=-1)


def perturbed_topk(logits, k: int, noise: bool = False,
                   rng: np.random.Generator = None):
    """Indices [B, K] of the hard top-k of `logits` [B, M], with one
    Gumbel draw added to every logit first when `noise` is on."""
    if noise:
        if rng is None:
            raise ContractError("Gumbel noise needs a seeded rng")
        u = rng.uniform(size=logits.shape)
        logits = logits - np.log(-np.log(u))
    return hard_topk(logits, k)


def select_tokens(tokens: Tensor, indices) -> Tensor:
    """Keep slots 0/1 plus the chosen patch tokens, in the order of
    `indices` (ascending, as hard_topk returns them).

    `tokens` is [B, 2 + M, d] and `indices` [B, K] patch-slot indices,
    0-based within the patch region. Returns the reduced tokens
    [B, 2 + K, d].
    """
    idx = np.asarray(indices)
    b, t, _ = tokens.shape
    m = t - 2
    if idx.dtype.kind not in "iu":
        raise DomainError(f"selection indices must be integers, got dtype {idx.dtype}")
    if idx.ndim != 2 or idx.shape[0] != b or idx.shape[1] < 1:
        raise DimensionError(f"selection indices must be [{b}, K >= 1], got shape {idx.shape}")
    idx = idx.astype(np.int64, copy=False)  # `idx + 2` below must not wrap
    ordered = np.sort(idx, axis=1)
    duplicate = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if duplicate.any() or ordered[:, 0].min() < 0 or ordered[:, -1].max() >= m:
        outside = (ordered[:, 0] < 0) | (ordered[:, -1] >= m)
        row = int(np.flatnonzero(duplicate | outside)[0])
        if duplicate[row]:
            raise ContractError(f"duplicate selection indices {idx[row].tolist()}")
        raise ContractError(f"selection index out of range in {idx[row].tolist()}")
    slots = np.concatenate([np.broadcast_to([0, 1], (b, 2)), idx + 2], axis=1)
    return T.gather_tokens(tokens, slots)
