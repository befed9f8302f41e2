"""SGD with momentum and the cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, NumericError

LR_MIN = 1.6e-6  # the floor the cosine schedule decays to
MOMENTUM = 0.9


@dataclass
class SgdState:
    """Optimizer state: v <- MOMENTUM*v + g; w <- w - lr*v.

    The first `sgd_step` adopts its params dict: it copies the values into
    one flat float64 buffer, `_flat`, and points every parameter's `data` at
    its view of it; the velocities live in `_vflat`, in the same order. From
    then on a parameter changes only in place (as `restore_params` writes)."""

    learning_rate: float
    _flat: np.ndarray = field(default=None, init=False, repr=False)
    _vflat: np.ndarray = field(default=None, init=False, repr=False)
    _owned: list = field(default=None, init=False, repr=False)  # (Tensor, view)

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be nonnegative, got {self.learning_rate}")


def sgd_step(params: dict, state: SgdState) -> None:
    """Apply one SGD update in place and clear gradients.

    `params` maps name -> Tensor; every tensor must carry a populated `.grad`
    of its own shape (else DimensionError), and a non-finite one raises
    NumericError naming the first such parameter before any parameter changes.
    The update is two operations on the flat buffers of `state`, which adopts
    `params` on its first step. A later step with another dict, or after a
    caller rebound a `p.data`, raises ContractError before any update, as does
    an empty `params`.
    """
    if not params:
        raise ContractError("sgd_step needs at least one parameter")
    for name, p in params.items():
        if p.grad is None:
            raise ContractError(f"parameter '{name}' has no gradient")
        if p.grad.shape != p.data.shape:
            raise DimensionError(f"parameter '{name}' {p.data.shape} has a {p.grad.shape} gradient")
    if state._owned is None:  # adopt: each p.data becomes a view of `_flat`
        state._flat = np.concatenate([p.data for p in params.values()], axis=None,
                                     dtype=np.float64)
        state._vflat, state._owned, offset = np.zeros_like(state._flat), [], 0
        for p in params.values():
            n = p.data.size
            p.data = state._flat[offset:offset + n].reshape(p.data.shape)
            state._owned.append((p, p.data))
            offset += n
    if len(params) != len(state._owned):
        raise ContractError(f"SgdState adopted {len(state._owned)} parameters, "
                            f"got {len(params)}")
    for (name, p), (owned, view) in zip(params.items(), state._owned):
        if p is not owned:
            raise ContractError(f"parameter '{name}' is not the tensor SgdState adopted")
        if p.data is not view:
            raise ContractError(f"parameter '{name}' had its data rebound after "
                                f"SgdState adopted it; write into it in place")
    grads = np.concatenate([p.grad for p in params.values()], axis=None)
    # one reduction over every gradient: any NaN or infinity makes the sum
    # non-finite, and only then is each parameter scanned
    if not np.isfinite(grads.sum()):
        for name, p in params.items():
            if not np.isfinite(p.grad).all():
                raise NumericError(f"parameter '{name}' has a non-finite gradient")
    v = state._vflat
    v *= MOMENTUM
    v += grads
    state._flat -= np.multiply(v, state.learning_rate, out=grads)
    for p in params.values():
        p.grad = None


@dataclass
class ScheduleConfig:
    lr_max: float
    total_steps: int

    def __post_init__(self):
        if not self.lr_max > LR_MIN:
            raise ConfigError(f"schedule needs lr_max > LR_MIN = {LR_MIN}, got {self.lr_max}")
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be >= 1, got {self.total_steps}")


def cosine_lr(step: int, cfg: ScheduleConfig) -> float:
    """Half-cosine decay from lr_max at step 0 to LR_MIN at total_steps."""
    if step < 0:
        raise ConfigError(f"step must be nonnegative, got {step}")
    if step >= cfg.total_steps:
        # at and past the end of the schedule the rate stays at the floor
        return LR_MIN
    t = step / cfg.total_steps
    return LR_MIN + 0.5 * (cfg.lr_max - LR_MIN) * (1.0 + math.cos(math.pi * t))
