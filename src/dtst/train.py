"""Training loop: PK batches, cosine schedule, SGD, per-step logging."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import losses, model, optim
from .data import batch_arrays, check_pk, pk_batch
from .errors import ConfigError, DomainError, NumericError, SamplingError, check_count
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
    the whole run; returns the list of LogRow. Before any step, a P or K
    below 1, or a dataset smaller than one P*K batch, raises SamplingError,
    epochs not an integer >= 1 ConfigError, a seed not an integer >= 0
    DomainError, and params other than `init_params(cfg)` makes DimensionError
    (`model.check_params`). A step whose loss is not finite raises
    NumericError, and so does one in which numpy raises FloatingPointError
    (under the CLI's `np.errstate`), as "step N: " and numpy's message."""
    batch_p, batch_k = check_pk(batch_p, batch_k)
    epochs = check_count(epochs, 1, ConfigError, f"epochs must be an integer >= 1, got {epochs!r}")
    seed = check_count(seed, 0, DomainError, f"training seed must be an integer >= 0, "
                       f"got {seed!r}")
    if len(dataset) < batch_p * batch_k:
        raise SamplingError(f"{len(dataset)} samples cannot fill one "
                            f"{batch_p}x{batch_k} batch")
    model.check_params(cfg, params)
    rng = np.random.default_rng(seed)
    total_steps = epochs * (len(dataset) // (batch_p * batch_k))
    schedule = optim.ScheduleConfig(lr_max=lr_max, total_steps=total_steps)
    state = optim.SgdState(params)
    log = []
    for step in range(total_steps):
        batch = pk_batch(dataset, batch_p, batch_k, rng)
        x, y, v = batch_arrays(batch)
        try:  # numpy's errors, where the caller has them raised, name the step
            with Tape() as tape:
                out = model.model_forward(cfg, params, x, v, rng=rng, training=True)
                id_loss = losses.cross_entropy_loss(out.id_logits, y)
                view_loss = losses.cross_entropy_loss(out.view_logits, v)
                orth_loss = losses.orthogonal_loss(out.meta_feature, out.view_feature)
                total = losses.total_loss(id_loss, view_loss, orth_loss)
            lr = optim.cosine_lr(step, schedule)
            row = LogRow(step, lr, id_loss.item(), view_loss.item(), orth_loss.item(),
                         total.item())
            if not math.isfinite(row.total):
                raise NumericError(f"non-finite loss at step {step}: {row}")
            backward(total, tape)
            # on the module, where a tracer's wrapper of it ends each step's span
            optim.sgd_step(state, lr)
        except FloatingPointError as exc:
            raise NumericError(f"step {step}: {exc}") from exc
        log.append(row)
    return log


def write_log(path, log) -> None:
    """CSV with CRLF line ends, each value written with `repr`."""
    names = [field.name for field in fields(LogRow)]
    rows = ([repr(getattr(row, n)) for n in names] for row in log)
    model.write_artifact(path, (",".join(r) + "\r\n" for r in itertools.chain([names], rows)))
