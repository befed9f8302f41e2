"""SGD with momentum and the cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, NumericError


@dataclass
class SgdState:
    """Optimizer state: v <- momentum*v + g; w <- w - lr*v.

    `sgd_step` keeps the parameter values and the velocities in one flat
    float64 buffer each, in the order of the params dict: every parameter's
    `data` is a view of `_flat`, and `velocity` maps each name to its view of
    `_vflat`."""

    learning_rate: float
    momentum: float = 0.9
    velocity: dict = field(default_factory=dict)
    _flat: np.ndarray = field(default=None, init=False, repr=False)
    _vflat: np.ndarray = field(default=None, init=False, repr=False)
    _owned: list = field(default_factory=list, init=False, repr=False)  # (name, Tensor, view)

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be nonnegative, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")


def _adopt(params: dict, state: SgdState) -> None:
    """Copy the current parameter values into a new flat buffer and point
    every `p.data` at its view of it. A velocity is kept where its name and
    shape are unchanged; any other starts at zero."""
    sizes = [p.data.size for p in params.values()]
    state._flat = np.concatenate([p.data for p in params.values()], axis=None,
                                 dtype=np.float64)
    state._vflat = np.zeros_like(state._flat)
    old, state.velocity, state._owned = state.velocity, {}, []
    offset = 0
    for (name, p), n in zip(params.items(), sizes):
        shape = p.data.shape
        p.data = state._flat[offset:offset + n].reshape(shape)
        v = state._vflat[offset:offset + n].reshape(shape)
        if name in old and old[name].shape == shape:
            v[...] = old[name]
        state.velocity[name] = v
        state._owned.append((name, p, p.data))
        offset += n


def sgd_step(params: dict, state: SgdState) -> None:
    """Apply one SGD update in place and clear gradients.

    `params` maps name -> Tensor; every tensor must carry a populated `.grad`,
    and a non-finite one raises NumericError naming the first such parameter
    before any parameter changes. The update is two operations on the flat
    buffers of `state`; when the params dict is not the one they hold, or a
    caller has rebound a `p.data`, the current values are adopted first.
    """
    for name, p in params.items():
        if p.grad is None:
            raise ContractError(f"parameter '{name}' has no gradient")
    grads = np.concatenate([p.grad for p in params.values()], axis=None)
    # one reduction over every gradient: any NaN or infinity makes the sum
    # non-finite, and only then is each parameter scanned
    if not np.isfinite(grads.sum()):
        for name, p in params.items():
            if not np.isfinite(p.grad).all():
                raise NumericError(f"parameter '{name}' has a non-finite gradient")
    if len(state._owned) != len(params) or not all(
            name == owned[0] and p is owned[1] and p.data is owned[2]
            for (name, p), owned in zip(params.items(), state._owned)):
        _adopt(params, state)
    v = state._vflat
    v *= state.momentum
    v += grads
    state._flat -= np.multiply(v, state.learning_rate, out=grads)
    for p in params.values():
        p.grad = None


@dataclass
class ScheduleConfig:
    lr_max: float
    lr_min: float
    total_steps: int

    def __post_init__(self):
        if not self.lr_max > self.lr_min > 0:
            raise ConfigError(
                f"schedule needs lr_max > lr_min > 0, got {self.lr_max}, {self.lr_min}")
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be >= 1, got {self.total_steps}")


def cosine_lr(step: int, cfg: ScheduleConfig) -> float:
    """Half-cosine decay from lr_max at step 0 to lr_min at total_steps."""
    if step < 0:
        raise ConfigError(f"step must be nonnegative, got {step}")
    if step >= cfg.total_steps:
        # at and past the end of the schedule the rate stays at the floor
        return cfg.lr_min
    t = step / cfg.total_steps
    return cfg.lr_min + 0.5 * (cfg.lr_max - cfg.lr_min) * (1.0 + math.cos(math.pi * t))
