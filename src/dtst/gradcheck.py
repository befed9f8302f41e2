"""Central finite-difference gradient checks.

When a selector is active, the comparison target is the smooth surrogate
with selection indices and the straight-through baseline frozen at the
evaluation point; its gradient there equals the straight-through gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses, model
from .tensor import Tape, backward

DEFAULT_STEP = 1e-5
ZERO_FLOOR = 1e-6


def relative_error(a, b) -> float:
    """Normalized distance; vanishes when both sides sit below ZERO_FLOOR,
    so an analytically zero gradient is not failed on rounding noise in the
    finite differences."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if max(na, nb) < ZERO_FLOOR:
        return 0.0
    return float(np.linalg.norm(a - b) / max(na, nb))


@dataclass
class GroupResult:
    name: str
    rel_err: float
    tolerance: float

    @property
    def ok(self):
        return self.rel_err < self.tolerance


def check_model_gradients(cfg: model.ModelConfig, params: dict, x, y, v,
                          weights: losses.LossWeights, step: float = DEFAULT_STEP,
                          tolerance: float = 1e-3, max_coords: int = None,
                          coord_seed: int = 0):
    """Compare the end-to-end analytic gradient of the total loss against
    finite differences, one result per parameter.

    `max_coords` bounds the number of coordinates differenced per parameter
    (sampled deterministically); None checks every coordinate.
    """
    base = model.model_forward(cfg, params, x, v)
    frozen = None
    if base.selected_slots is not None:
        frozen = (base.selected_slots, base.selected_soft)

    def run_loss():
        out = model.model_forward(cfg, params, x, v, frozen_selection=frozen)
        id_loss = losses.cross_entropy_loss(out.id_logits, y)
        view_loss = losses.cross_entropy_loss(out.view_logits, v)
        orth_loss = losses.orthogonal_loss(out.meta_feature, out.view_feature)
        total, _ = losses.total_loss(id_loss, view_loss, orth_loss, weights)
        return total

    with Tape() as tape:
        total = run_loss()
    backward(total, tape)
    analytic = {name: p.grad.copy() for name, p in params.items()}
    for p in params.values():
        p.grad = None

    coord_rng = np.random.default_rng(coord_seed)
    results = []
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if max_coords is None or n <= max_coords:
            coords = np.arange(n)
        else:
            coords = coord_rng.choice(n, size=max_coords, replace=False)
        fd = np.empty(len(coords))
        for j, i in enumerate(coords):
            orig = flat[i]
            flat[i] = orig + step
            hi = run_loss().item()
            flat[i] = orig - step
            lo = run_loss().item()
            flat[i] = orig
            fd[j] = (hi - lo) / (2.0 * step)
        sampled_analytic = analytic[name].reshape(-1)[coords]
        results.append(GroupResult(name=name,
                                   rel_err=relative_error(sampled_analytic, fd),
                                   tolerance=tolerance))
    return results
