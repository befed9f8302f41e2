"""Identity/view cross-entropy, the orthogonal loss, and their weighted sum."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DomainError, NumericError
from .tensor import Tensor

NORM_FLOOR = 1e-12


@dataclass
class LossWeights:
    view_weight: float = 1.0
    orth_weight: float = 1.0

    def __post_init__(self):
        for name in ("view_weight", "orth_weight"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ConfigError(f"{name} must be finite and nonnegative, got {v}")


@dataclass
class LossReport:
    id_loss: float
    view_loss: float
    orth_loss: float
    total: float


def cross_entropy_loss(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of the labelled class (one tape entry)."""
    labels = np.asarray(labels, dtype=np.int64)
    b, c = logits.shape
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        raise DomainError(f"labels must lie in [0, {c}), got range "
                          f"[{labels.min()}, {labels.max()}]")
    rows = np.arange(b)
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    loss = -(logp[rows, labels].sum() * (1.0 / b))

    def bwd(g):
        gl = np.exp(logp)
        gl[rows, labels] -= 1.0
        gl *= g * (1.0 / b)
        return (gl,)

    return T.make(loss, (logits,), bwd)


def orthogonal_loss(meta: Tensor, view: Tensor) -> Tensor:
    """Mean squared cosine similarity between paired feature rows (one tape
    entry); each norm is floored at NORM_FLOOR."""
    m, v = meta.data, view.data
    dot = (m * v).sum(axis=-1)
    m_norm = np.sqrt((m * m).sum(axis=-1))
    v_norm = np.sqrt((v * v).sum(axis=-1))
    m_safe = np.maximum(m_norm, NORM_FLOOR)
    v_safe = np.maximum(v_norm, NORM_FLOOR)
    cos = dot / m_safe / v_safe
    n = cos.size
    loss = (cos * cos).sum() * (1.0 / n)

    def bwd(g):
        gcos = (2.0 * g / n) * cos
        cross = (gcos / (m_safe * v_safe))[..., None]
        # a floored norm is constant, so its radial term drops out
        m_radial = (gcos * cos * (m_norm > NORM_FLOOR) / (m_safe * m_safe))[..., None]
        v_radial = (gcos * cos * (v_norm > NORM_FLOOR) / (v_safe * v_safe))[..., None]
        return v * cross - m * m_radial, m * cross - v * v_radial

    return T.make(loss, (meta, view), bwd)


def total_loss(id_loss: Tensor, view_loss: Tensor, orth_loss: Tensor,
               weights: LossWeights):
    """Weighted sum (one tape entry); returns (total Tensor, LossReport of
    scalar values)."""
    for name, t in (("id_loss", id_loss), ("view_loss", view_loss),
                    ("orth_loss", orth_loss)):
        if not np.isfinite(t.data).all():
            raise NumericError(f"{name} is not finite")
    wv, wo = weights.view_weight, weights.orth_weight
    total = id_loss.data + wv * view_loss.data + wo * orth_loss.data
    total = T.make(total, (id_loss, view_loss, orth_loss),
                   lambda g: (g, wv * g, wo * g))
    report = LossReport(id_loss=id_loss.item(), view_loss=view_loss.item(),
                        orth_loss=orth_loss.item(), total=total.item())
    return total, report
