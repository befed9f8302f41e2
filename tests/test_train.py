"""Optimizer, cosine schedule, training loop, and log round-trips."""

import gc
import weakref

import numpy as np
import pytest

from dtst import losses
from dtst.data import GenConfig, batch_arrays, generate_dataset
from dtst.errors import ConfigError, ContractError
from dtst.losses import LossWeights
from dtst.model import ModelConfig, init_params, model_forward
from dtst.optim import ScheduleConfig, SgdState, cosine_lr, sgd_step
from dtst.selector import SelectorConfig
from dtst.tensor import Tape, Tensor, backward
from dtst.train import LogRow, read_log, train_run, write_log


def test_cosine_endpoints_are_exact():
    cfg = ScheduleConfig(lr_max=8e-3, lr_min=1.6e-6, total_steps=100)
    assert cosine_lr(0, cfg) == 8e-3
    assert cosine_lr(100, cfg) == 1.6e-6
    assert cosine_lr(1000, cfg) == 1.6e-6


def test_cosine_midpoint_and_monotonicity():
    cfg = ScheduleConfig(lr_max=1.0, lr_min=0.1, total_steps=10)
    assert cosine_lr(5, cfg) == pytest.approx(0.55, abs=1e-15)
    values = [cosine_lr(t, cfg) for t in range(11)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_cosine_rejects_negative_step():
    cfg = ScheduleConfig(lr_max=1.0, lr_min=0.1, total_steps=10)
    with pytest.raises(ConfigError, match="nonnegative"):
        cosine_lr(-1, cfg)


def test_schedule_validation():
    with pytest.raises(ConfigError):
        ScheduleConfig(lr_max=0.1, lr_min=0.1, total_steps=10)
    with pytest.raises(ConfigError):
        ScheduleConfig(lr_max=0.1, lr_min=0.0, total_steps=10)
    with pytest.raises(ConfigError):
        ScheduleConfig(lr_max=0.1, lr_min=0.01, total_steps=0)


def test_sgd_momentum_law_matches_hand_rollout():
    w0 = np.array([1.0, -2.0])
    grads = [np.array([0.5, 0.5]), np.array([-1.0, 2.0]), np.array([0.25, 0.0])]
    p = Tensor(w0.copy(), requires_grad=True)
    state = SgdState(learning_rate=0.1, momentum=0.9)
    w, v = w0.copy(), np.zeros(2)
    for g in grads:
        p.grad = g.copy()
        sgd_step({"w": p}, state)
        v = 0.9 * v + g
        w = w - 0.1 * v
        assert np.allclose(p.data, w, atol=1e-15)
        assert p.grad is None


def test_sgd_requires_gradients():
    p = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ContractError, match="has no gradient"):
        sgd_step({"w": p}, SgdState(learning_rate=0.1))


def test_sgd_state_validation():
    with pytest.raises(ConfigError):
        SgdState(learning_rate=-1.0)
    with pytest.raises(ConfigError):
        SgdState(learning_rate=0.1, momentum=1.0)


def _tiny_setup(selector=True, seed=0):
    selcfg = SelectorConfig(k=2, noise_enabled=False) if selector else None
    cfg = ModelConfig(num_identities=4, num_blocks=1, embed_dim=8,
                      num_attn_heads=2, patch_grid=(2, 2), patch_dim=3,
                      selector=selcfg)
    gen = GenConfig(num_ids=4, samples_per_id_per_view=4, grid=(2, 2),
                    patch_dim=3, k_sig=2, seed=seed)
    data = generate_dataset(gen)
    params = init_params(cfg, seed=seed)
    return cfg, params, data


def test_train_run_reduces_loss_and_logs_every_step():
    cfg, params, data = _tiny_setup()
    log = train_run(cfg, params, data, 5e-2, 1e-4, LossWeights(),
                    epochs=10, batch_p=2, batch_k=2, seed=1)
    assert [r.step for r in log] == list(range(len(log)))
    assert log[0].lr == 5e-2
    first = np.mean([r.id_loss for r in log[:8]])
    last = np.mean([r.id_loss for r in log[-8:]])
    assert last < first


def test_total_steps_for():
    """train_run runs epochs * (len(dataset) // (P*K)) steps."""
    cfg, params, data = _tiny_setup()  # 32 samples, 8 per identity
    log = train_run(cfg, params, data, 1e-2, 1e-5, LossWeights(),
                    epochs=1, batch_p=4, batch_k=8, seed=0)
    assert len(log) == 1  # one batch takes the whole dataset
    log = train_run(cfg, params, data, 1e-2, 1e-5, LossWeights(),
                    epochs=2, batch_p=4, batch_k=2, seed=0)
    assert len(log) == 2 * (32 // 8)


def test_train_run_rejects_mismatched_schedule():
    """An lr range that cannot decay is refused before any step is taken."""
    cfg, params, data = _tiny_setup()
    before = {k: v.data.copy() for k, v in params.items()}
    for lr_max, lr_min in [(1e-5, 1e-2), (1e-2, 1e-2)]:
        with pytest.raises(ConfigError, match="lr_max > lr_min"):
            train_run(cfg, params, data, lr_max, lr_min, LossWeights(),
                      epochs=1, batch_p=2, batch_k=2, seed=0)
    for name, value in before.items():
        assert np.array_equal(params[name].data, value), name


def test_train_run_derives_step_count_and_schedule():
    cfg, params, data = _tiny_setup()  # 32 samples
    log = train_run(cfg, params, data, 1e-2, 1e-5, LossWeights(),
                    epochs=3, batch_p=2, batch_k=2, seed=0)
    assert len(log) == 3 * (32 // 4)
    schedule = ScheduleConfig(lr_max=1e-2, lr_min=1e-5, total_steps=len(log))
    assert [r.lr for r in log] == [cosine_lr(r.step, schedule) for r in log]


def test_train_run_is_deterministic():
    runs = []
    for _ in range(2):
        cfg, params, data = _tiny_setup()
        log = train_run(cfg, params, data, 1e-2, 1e-5, LossWeights(),
                        epochs=2, batch_p=2, batch_k=2, seed=7)
        runs.append((log, {k: v.data.copy() for k, v in params.items()}))
    (log_a, pa), (log_b, pb) = runs
    assert [r.total for r in log_a] == [r.total for r in log_b]
    for name in pa:
        assert np.array_equal(pa[name], pb[name]), name


def test_training_changes_predictions():
    cfg, params, data = _tiny_setup()
    x = np.stack([s.x for s in data[:4]])
    v = np.array([s.v for s in data[:4]])
    before = model_forward(cfg, params, x, v).id_logits.data.copy()
    train_run(cfg, params, data, 1e-2, 1e-5, LossWeights(),
              epochs=2, batch_p=2, batch_k=2, seed=0)
    after = model_forward(cfg, params, x, v).id_logits.data
    assert not np.allclose(before, after)


def test_step_tape_is_freed_by_reference_counting():
    """A training step's tape, and with it the activations its entries hold,
    goes away as soon as the step's locals do, without the cycle collector."""
    cfg, params, data = _tiny_setup()
    x, y, v = batch_arrays(data[:4])

    def step():
        with Tape() as tape:
            out = model_forward(cfg, params, x, v, rng=np.random.default_rng(0),
                                training=True)
            total, _ = losses.total_loss(
                losses.cross_entropy_loss(out.id_logits, y),
                losses.cross_entropy_loss(out.view_logits, v),
                losses.orthogonal_loss(out.meta_feature, out.view_feature),
                LossWeights())
        backward(total, tape)
        return weakref.ref(tape)

    gc.disable()
    try:
        assert step()() is None
    finally:
        gc.enable()
    assert all(p.grad is not None for p in params.values())


def test_log_round_trip(tmp_path):
    log = [LogRow(step=0, lr=8e-3, id_loss=1.25, view_loss=0.5,
                  orth_loss=0.125, total=1.875),
           LogRow(step=1, lr=7.5e-3, id_loss=1.0, view_loss=0.25,
                  orth_loss=0.1, total=1.35)]
    path = tmp_path / "log.csv"
    write_log(path, log)
    back = read_log(path)
    assert back == log  # repr round-trips float64 exactly
