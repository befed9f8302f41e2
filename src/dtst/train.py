"""Training loop: PK batches, cosine schedule, SGD, per-step logging."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from . import losses, model, optim
from .data import batch_arrays, check_pk, pk_batch
from .errors import DomainError, NumericError, SamplingError, check_count
from .tensor import Tape, backward


@dataclass
class LogRow:
    step: int
    lr: float
    id_loss: float
    view_loss: float
    orth_loss: float
    total: float


def train_run(cfg: model.ModelConfig, params: dict, dataset, lr_max: float,
              epochs: int, batch_p: int, batch_k: int, seed: int):
    """Train in place for `epochs` epochs of len(dataset) // (P*K) steps
    each, the learning rate decaying from `lr_max` to `optim.LR_MIN` over
    the whole run; returns the list of LogRow. A P or K below 1, or a
    dataset smaller than one P*K batch, raises SamplingError before any
    step, and a seed that is not an integer >= 0 DomainError."""
    batch_p, batch_k = check_pk(batch_p, batch_k)
    seed = check_count(seed, 0, DomainError, f"training seed must be an integer >= 0, "
                       f"got {seed!r}")
    if len(dataset) < batch_p * batch_k:
        raise SamplingError(f"{len(dataset)} samples cannot fill one "
                            f"{batch_p}x{batch_k} batch")
    rng = np.random.default_rng(seed)
    total_steps = epochs * (len(dataset) // (batch_p * batch_k))
    schedule = optim.ScheduleConfig(lr_max=lr_max, total_steps=total_steps)
    state = optim.SgdState(learning_rate=schedule.lr_max)
    log = []
    for step in range(total_steps):
        batch = pk_batch(dataset, batch_p, batch_k, rng)
        x, y, v = batch_arrays(batch)
        with Tape() as tape:
            out = model.model_forward(cfg, params, x, v, rng=rng, training=True)
            id_loss = losses.cross_entropy_loss(out.id_logits, y)
            view_loss = losses.cross_entropy_loss(out.view_logits, v)
            orth_loss = losses.orthogonal_loss(out.meta_feature, out.view_feature)
            total = losses.total_loss(id_loss, view_loss, orth_loss)
        state.learning_rate = optim.cosine_lr(step, schedule)
        row = LogRow(step, state.learning_rate, id_loss.item(), view_loss.item(),
                     orth_loss.item(), total.item())
        if not math.isfinite(row.total):
            raise NumericError(f"non-finite loss at step {step}: {row}")
        backward(total, tape)
        optim.sgd_step(params, state)
        log.append(row)
    return log


def write_log(path, log) -> None:
    names = [field.name for field in fields(LogRow)]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(names)
        for row in log:
            w.writerow([repr(getattr(row, n)) for n in names])
