"""Training loop: PK batches, cosine schedule, SGD, per-step logging."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import losses, model, optim
from .data import batch_arrays, pk_batch
from .errors import NumericError, SamplingError
from .tensor import Tape, backward

LOG_COLUMNS = ("step", "lr", "id_loss", "view_loss", "orth_loss", "total")


@dataclass
class LogRow:
    step: int
    lr: float
    id_loss: float
    view_loss: float
    orth_loss: float
    total: float


def train_run(cfg: model.ModelConfig, params: dict, dataset,
              lr_max: float, lr_min: float, weights: losses.LossWeights,
              epochs: int, batch_p: int, batch_k: int, seed: int,
              momentum: float = 0.9):
    """Train in place for `epochs` epochs of len(dataset) // (P*K) steps
    each, the learning rate decaying from `lr_max` to `lr_min` over the whole
    run; returns the list of LogRow. A dataset smaller than one P*K batch
    raises SamplingError before any step."""
    if len(dataset) < batch_p * batch_k:
        raise SamplingError(f"{len(dataset)} samples cannot fill one "
                            f"{batch_p}x{batch_k} batch")
    rng = np.random.default_rng(seed)
    total_steps = epochs * (len(dataset) // (batch_p * batch_k))
    schedule = optim.ScheduleConfig(lr_max=lr_max, lr_min=lr_min, total_steps=total_steps)
    state = optim.SgdState(learning_rate=schedule.lr_max, momentum=momentum)
    log = []
    for step in range(total_steps):
        batch = pk_batch(dataset, batch_p, batch_k, rng)
        x, y, v = batch_arrays(batch)
        with Tape() as tape:
            out = model.model_forward(cfg, params, x, v, rng=rng, training=True)
            id_loss = losses.cross_entropy_loss(out.id_logits, y)
            view_loss = losses.cross_entropy_loss(out.view_logits, v)
            orth_loss = losses.orthogonal_loss(out.meta_feature, out.view_feature)
            total, report = losses.total_loss(id_loss, view_loss, orth_loss, weights)
        if not math.isfinite(report.total):
            raise NumericError(f"non-finite loss at step {step}: {report}")
        backward(total, tape)
        state.learning_rate = optim.cosine_lr(step, schedule)
        optim.sgd_step(params, state)
        log.append(LogRow(step=step, lr=state.learning_rate,
                          id_loss=report.id_loss, view_loss=report.view_loss,
                          orth_loss=report.orth_loss, total=report.total))
    return log


def write_log(path, log) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(LOG_COLUMNS)
        for row in log:
            w.writerow([row.step, repr(row.lr), repr(row.id_loss),
                        repr(row.view_loss), repr(row.orth_loss), repr(row.total)])


def read_log(path):
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for rec in reader:
            rows.append(LogRow(step=int(rec["step"]), lr=float(rec["lr"]),
                               id_loss=float(rec["id_loss"]),
                               view_loss=float(rec["view_loss"]),
                               orth_loss=float(rec["orth_loss"]),
                               total=float(rec["total"])))
    return rows
