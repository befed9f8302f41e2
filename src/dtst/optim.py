"""SGD with momentum and the cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, NumericError


@dataclass
class SgdState:
    """Optimizer state: v <- momentum*v + g; w <- w - lr*v."""

    learning_rate: float
    momentum: float = 0.9
    velocity: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be nonnegative, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")


def sgd_step(params: dict, state: SgdState) -> None:
    """Apply one SGD update in place and clear gradients.

    `params` maps name -> Tensor; every tensor must carry a populated `.grad`,
    and a non-finite one raises NumericError naming the first such parameter
    before any parameter changes.
    """
    for name, p in params.items():
        if p.grad is None:
            raise ContractError(f"parameter '{name}' has no gradient")
    # one reduction over every gradient: any NaN or infinity makes the sum
    # non-finite, and only then is each parameter scanned
    if not np.isfinite(np.concatenate([p.grad for p in params.values()], axis=None).sum()):
        for name, p in params.items():
            if not np.isfinite(p.grad).all():
                raise NumericError(f"parameter '{name}' has a non-finite gradient")
    for name, p in params.items():
        v = state.velocity.get(name)
        if v is None:
            v = np.zeros_like(p.data)
        v = state.momentum * v + p.grad
        state.velocity[name] = v
        p.data -= state.learning_rate * v
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
