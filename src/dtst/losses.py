"""Identity/view cross-entropy, the orthogonal loss, and their weighted sum."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import DimensionError, DomainError, NumericError
from .tensor import Tensor

NORM_FLOOR = 1e-12
# weights of the view and orthogonal losses in the total; the identity loss weighs 1
VIEW_WEIGHT = 1.0
ORTH_WEIGHT = 3.0


def cross_entropy_loss(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of the labelled class (one tape entry)."""
    labels = np.asarray(labels)
    if len(logits.shape) != 2:
        raise DimensionError(f"logits must be [B, C], got shape {logits.shape}")
    b, c = logits.shape
    if labels.shape != (b,):
        raise DimensionError(f"expected {b} labels, one per row, got shape {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise DomainError(f"labels must be integers, got dtype {labels.dtype}")
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
    entry); each norm is floored at NORM_FLOOR. Both are [B, d]."""
    if len(meta.shape) != 2 or meta.shape != view.shape:
        raise DimensionError(f"expected two equal [B, d] shapes, got {meta.shape} "
                             f"and {view.shape}")
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


def total_loss(id_loss: Tensor, view_loss: Tensor, orth_loss: Tensor) -> Tensor:
    """id + VIEW_WEIGHT * view + ORTH_WEIGHT * orth (one tape entry)."""
    for name, t in (("id_loss", id_loss), ("view_loss", view_loss),
                    ("orth_loss", orth_loss)):
        if not np.isfinite(t.data).all():
            raise NumericError(f"{name} is not finite")
    total = id_loss.data + VIEW_WEIGHT * view_loss.data + ORTH_WEIGHT * orth_loss.data
    return T.make(total, (id_loss, view_loss, orth_loss),
                  lambda g: (g, VIEW_WEIGHT * g, ORTH_WEIGHT * g))
