"""SGD with momentum and the cosine learning-rate schedule."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, ContractError, DimensionError, NumericError, check_count,
                     is_finite_real)

LR_MIN = 1.6e-6  # the floor the cosine schedule decays to
MOMENTUM = 0.9


class SgdState:
    """Optimizer state: v <- MOMENTUM*v + g; w <- w - lr*v.

    Made from a non-empty params dict (else ContractError), it adopts it: it
    copies the values into one flat float64 buffer, `_flat`, and points every
    parameter's `data` at its view of it, so from then on a parameter changes
    only in place (as `restore_params` writes). The first step makes the
    velocities, `_vflat`, in the same order, after its activations: made
    here, before them, each step of a later `bench_cfg` training in one
    process took over 100 minor page faults, not 0, as glibc handed the
    step's freed memory back to the OS."""

    def __init__(self, params: dict):
        if not isinstance(params, dict) or not params:
            raise ContractError(f"SgdState needs a non-empty params dict, got {params!r}")
        self._flat = np.concatenate([p.data for p in params.values()], axis=None,
                                    dtype=np.float64)
        self._vflat, self._owned, offset = None, {}, 0
        for name, p in params.items():
            p.data = self._flat[offset:offset + p.data.size].reshape(p.data.shape)
            self._owned[name] = (p, p.data)
            offset += p.data.size


def sgd_step(state: SgdState, lr: float) -> None:
    """Apply one SGD update at learning rate `lr` to the parameters `state`
    adopted, in place, and clear their gradients.

    Before any parameter changes: an `lr` that is not a finite number >= 0
    raises ConfigError; a parameter without a `.grad`, or whose `data` a
    caller rebound, ContractError; a `.grad` of another shape than its
    `data`, DimensionError; a non-finite one, NumericError naming the first
    such parameter. The update is two operations on the flat buffers."""
    if not (is_finite_real(lr) and lr >= 0):
        raise ConfigError(f"learning rate must be a finite number >= 0, got {lr!r}")
    for name, (p, view) in state._owned.items():
        if p.grad is None:
            raise ContractError(f"parameter '{name}' has no gradient")
        if p.data is not view:
            raise ContractError(f"parameter '{name}' had its data rebound after "
                                f"SgdState adopted it; write into it in place")
        if p.grad.shape != p.data.shape:
            raise DimensionError(f"parameter '{name}' {p.data.shape} has a {p.grad.shape} gradient")
    grads = np.concatenate([p.grad for p, _ in state._owned.values()], axis=None)
    # one reduction over every gradient: any NaN or infinity makes the sum
    # non-finite, and only then is each parameter scanned
    if not np.isfinite(grads.sum()):
        for name, (p, _) in state._owned.items():
            if not np.isfinite(p.grad).all():
                raise NumericError(f"parameter '{name}' has a non-finite gradient")
    if state._vflat is None:
        state._vflat = np.zeros_like(state._flat)
    state._vflat *= MOMENTUM
    state._vflat += grads
    state._flat -= np.multiply(state._vflat, lr, out=grads)
    for p, _ in state._owned.values():
        p.grad = None


@dataclass
class ScheduleConfig:
    lr_max: float
    total_steps: int

    def __post_init__(self):
        if not (is_finite_real(self.lr_max) and self.lr_max > LR_MIN):
            raise ConfigError(f"schedule needs lr_max > LR_MIN = {LR_MIN}, a finite number, "
                              f"got {self.lr_max!r}")
        self.total_steps = check_count(self.total_steps, 1, ConfigError, f"total_steps must "
                                       f"be an integer >= 1, got {self.total_steps!r}")


def cosine_lr(step: int, cfg: ScheduleConfig) -> float:
    """Half-cosine decay from lr_max at step 0 to LR_MIN at total_steps; a
    step that is not an integer >= 0 raises ConfigError."""
    step = check_count(step, 0, ConfigError, f"step must be a nonnegative integer, got {step!r}")
    if step >= cfg.total_steps:
        # at and past the end of the schedule the rate stays at the floor
        return LR_MIN
    t = step / cfg.total_steps
    return LR_MIN + 0.5 * (cfg.lr_max - LR_MIN) * (1.0 + math.cos(math.pi * t))
