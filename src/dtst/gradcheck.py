"""Central finite-difference gradient checks.

When a selector is active, the kept slot indices are frozen at the
evaluation point, so a difference step cannot change which tokens are kept.
No gradient flows through the selection, so the analytic gradient is that
of the frozen forward as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses, model
from .errors import DomainError, check_count
from .tensor import Tape, backward

STEP = 1e-5  # central-difference step
TOLERANCE = 1e-3  # largest relative error that passes
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

    @property
    def ok(self):
        return self.rel_err < TOLERANCE


def check_model_gradients(cfg: model.ModelConfig, params: dict, x, y, v,
                          max_coords: int = None, coord_seed: int = 0):
    """Compare the end-to-end analytic gradient of the total loss against
    central differences of step `STEP`, one result per parameter.

    `max_coords` bounds the number of coordinates differenced per parameter
    (sampled deterministically from `coord_seed`, an integer >= 0); None
    checks every coordinate.
    """
    coord_seed = check_count(coord_seed, 0, DomainError,
                             f"coordinate seed must be an integer >= 0, got {coord_seed!r}")
    frozen = model.model_forward(cfg, params, x, v).selected_slots

    def run_loss():
        out = model.model_forward(cfg, params, x, v, frozen_selection=frozen)
        id_loss = losses.cross_entropy_loss(out.id_logits, y)
        view_loss = losses.cross_entropy_loss(out.view_logits, v)
        orth_loss = losses.orthogonal_loss(out.meta_feature, out.view_feature)
        return losses.total_loss(id_loss, view_loss, orth_loss)

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
            flat[i] = orig + STEP
            hi = run_loss().item()
            flat[i] = orig - STEP
            lo = run_loss().item()
            flat[i] = orig
            fd[j] = (hi - lo) / (2.0 * STEP)
        sampled_analytic = analytic[name].reshape(-1)[coords]
        results.append(GroupResult(name=name, rel_err=relative_error(sampled_analytic, fd)))
    return results
