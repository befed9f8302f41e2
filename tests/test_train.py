"""Optimizer, cosine schedule, training loop, and log round-trips."""

import csv
import gc
import weakref

import numpy as np
import pytest

from dtst import losses
from dtst.data import GenConfig, batch_arrays, generate_dataset, pk_batch
from dtst.errors import (ConfigError, ContractError, DimensionError, DomainError, NumericError,
                         SamplingError)
from dtst.model import ModelConfig, init_params, model_forward
from dtst.optim import LR_MIN, ScheduleConfig, SgdState, cosine_lr, sgd_step
from dtst.selector import SelectorConfig
from dtst.tensor import Tape, Tensor, backward
from dtst.train import LogRow, train_run, write_log


def test_cosine_endpoints_are_exact():
    cfg = ScheduleConfig(lr_max=8e-3, total_steps=100)
    assert LR_MIN == 1.6e-6
    assert cosine_lr(0, cfg) == 8e-3
    assert cosine_lr(100, cfg) == LR_MIN
    assert cosine_lr(1000, cfg) == LR_MIN


def test_cosine_midpoint_and_monotonicity():
    cfg = ScheduleConfig(lr_max=1.0, total_steps=10)
    assert cosine_lr(5, cfg) == pytest.approx((1.0 + LR_MIN) / 2, abs=1e-15)
    values = [cosine_lr(t, cfg) for t in range(11)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_cosine_rejects_negative_step():
    cfg = ScheduleConfig(lr_max=1.0, total_steps=10)
    with pytest.raises(ConfigError, match="nonnegative"):
        cosine_lr(-1, cfg)


def test_schedule_validation():
    # lr_max must lie above the floor the schedule decays to
    for lr_max in (LR_MIN, 1e-7, 0.0, float("nan")):
        with pytest.raises(ConfigError, match="lr_max > LR_MIN"):
            ScheduleConfig(lr_max=lr_max, total_steps=10)
    with pytest.raises(ConfigError):
        ScheduleConfig(lr_max=0.1, total_steps=0)


def test_sgd_momentum_law_matches_hand_rollout():
    w0 = np.array([1.0, -2.0])
    grads = [np.array([0.5, 0.5]), np.array([-1.0, 2.0]), np.array([0.25, 0.0])]
    p = Tensor(w0.copy(), requires_grad=True)
    state = SgdState(learning_rate=0.1)
    w, v = w0.copy(), np.zeros(2)
    for g in grads:
        p.grad = g.copy()
        sgd_step({"w": p}, state)
        v = 0.9 * v + g
        w = w - 0.1 * v
        assert np.allclose(p.data, w, atol=1e-15)
        assert p.grad is None


def test_sgd_step_matches_the_per_parameter_update_bit_for_bit():
    # the flat-buffer update against v <- MOMENTUM*v + g; w <- w - lr*v on
    # each parameter alone; between steps 2 and 3 a caller overwrites one
    # parameter's values in place (as restore_params does)
    rng = np.random.default_rng(5)
    shapes = {"w": (3, 4), "b": (4,), "t": (2, 1, 3)}
    params = {n: Tensor(rng.normal(size=s), requires_grad=True) for n, s in shapes.items()}
    ref = {n: p.data.copy() for n, p in params.items()}
    vel = {n: np.zeros(s) for n, s in shapes.items()}
    state = SgdState(learning_rate=0.0)
    for step, lr in enumerate((0.1, 0.05, 0.3, 0.07, 0.2)):
        if step == 3:
            params["b"].data[...] = rng.normal(size=4)
            ref["b"] = params["b"].data.copy()
        grads = {n: rng.normal(size=s) for n, s in shapes.items()}
        for n, p in params.items():
            p.grad = grads[n].copy()
        state.learning_rate = lr
        sgd_step(params, state)
        for n in shapes:
            vel[n] = 0.9 * vel[n] + grads[n]
            ref[n] -= lr * vel[n]
            assert params[n].data.tobytes() == ref[n].tobytes(), (step, n)
            assert params[n].grad is None


def test_sgd_requires_gradients():
    p = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ContractError, match="has no gradient"):
        sgd_step({"w": p}, SgdState(learning_rate=0.1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sgd_rejects_non_finite_gradient_before_any_update(bad):
    names = ("a", "b", "c", "d")
    params = {n: Tensor(np.full((2, 3), float(i)), requires_grad=True)
              for i, n in enumerate(names)}
    for p in params.values():
        p.grad = np.ones((2, 3))
    params["c"].grad[1, 2] = bad
    params["d"].grad[0, 0] = np.nan
    state = SgdState(learning_rate=0.1)
    with pytest.raises(NumericError, match="'c'"):
        sgd_step(params, state)
    for i, n in enumerate(names):
        assert np.array_equal(params[n].data, np.full((2, 3), float(i)))
    # the velocities are still zero, so one finite step moves each value by -lr
    for p in params.values():
        p.grad = np.ones((2, 3))
    sgd_step(params, state)
    for i, n in enumerate(names):
        assert np.array_equal(params[n].data, np.full((2, 3), float(i) - 0.1))


@pytest.mark.parametrize("grads", [
    ([1.0, 2.0, 3.0], [4.0, 5.0]),  # five values for five: a flat update would realign them
    ([1.0, 2.0], [[4.0, 5.0, 6.0]]),  # the right size in another shape
    ([1.0, 2.0], [4.0, 5.0]),  # one value short
])
def test_sgd_rejects_a_gradient_of_another_shape_before_any_update(grads):
    params = {n: Tensor(np.zeros(size), requires_grad=True) for n, size in (("a", 2), ("b", 3))}
    for p, g in zip(params.values(), grads):
        p.grad = np.array(g)
    state = SgdState(learning_rate=1.0)
    with pytest.raises(DimensionError, match=r"'[ab]' \(.*\) has a \(.*\) gradient"):
        sgd_step(params, state)
    assert not any(p.data.any() for p in params.values())
    # the velocities are still zero, so a step with the right shapes moves by -grad
    for p, g in zip(params.values(), ([1.0, 2.0], [3.0, 4.0, 5.0])):
        p.grad = np.array(g)
    sgd_step(params, state)
    assert [p.data.tolist() for p in params.values()] == [[-1.0, -2.0], [-3.0, -4.0, -5.0]]


def _stepped_params():
    """Three parameters after one SGD step, their state, and their values."""
    params = {n: Tensor(np.full(3, float(i)), requires_grad=True)
              for i, n in enumerate(("a", "b", "c"))}
    state = SgdState(learning_rate=0.1)
    for p in params.values():
        p.grad = np.ones(3)
    sgd_step(params, state)
    for p in params.values():
        p.grad = np.ones(3)
    return params, state, {n: p.data.copy() for n, p in params.items()}


def test_sgd_rejects_rebound_data_before_any_update():
    params, state, before = _stepped_params()
    params["b"].data = np.zeros(3)
    with pytest.raises(ContractError, match="'b' had its data rebound"):
        sgd_step(params, state)
    for n in ("a", "c"):
        assert np.array_equal(params[n].data, before[n]), n
    assert all(p.grad is not None for p in params.values())


def test_sgd_rejects_a_params_dict_it_did_not_adopt():
    params, state, before = _stepped_params()
    other = Tensor(np.zeros(3), requires_grad=True)
    other.grad = np.ones(3)
    with pytest.raises(ContractError, match="'c' is not the tensor"):
        sgd_step({**params, "c": other}, state)
    with pytest.raises(ContractError, match="adopted 3 parameters, got 2"):
        sgd_step({"a": params["a"], "b": params["b"]}, state)
    for n, p in params.items():
        assert np.array_equal(p.data, before[n]), n


def test_sgd_finite_gradients_whose_sum_overflows_still_update():
    p = Tensor(np.zeros(2), requires_grad=True)
    p.grad = np.array([1e308, 1e308])
    with np.errstate(over="ignore"):  # the fused check's sum overflows
        sgd_step({"w": p}, SgdState(learning_rate=1e-308))
    assert np.allclose(p.data, -1.0)


def test_sgd_state_validation():
    with pytest.raises(ConfigError):
        SgdState(learning_rate=-1.0)


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
    log = train_run(cfg, params, data, 5e-2, epochs=10, batch_p=2, batch_k=2, seed=1)
    assert [r.step for r in log] == list(range(len(log)))
    assert log[0].lr == 5e-2
    first = np.mean([r.id_loss for r in log[:8]])
    last = np.mean([r.id_loss for r in log[-8:]])
    assert last < first


def test_train_run_rejects_a_non_finite_total_before_any_update(monkeypatch):
    # each component is finite, so only the weighted sum overflows
    monkeypatch.setattr(losses, "cross_entropy_loss", lambda logits, labels: Tensor(1e308))
    cfg, params, data = _tiny_setup()
    before = {name: p.data.copy() for name, p in params.items()}
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="step 0"):
        train_run(cfg, params, data, 1e-2, epochs=1, batch_p=2, batch_k=2, seed=0)
    for name, p in params.items():
        assert np.array_equal(p.data, before[name]), name


def test_total_steps_for():
    """train_run runs epochs * (len(dataset) // (P*K)) steps."""
    cfg, params, data = _tiny_setup()  # 32 samples, 8 per identity
    log = train_run(cfg, params, data, 1e-2, epochs=1, batch_p=4, batch_k=8, seed=0)
    assert len(log) == 1  # one batch takes the whole dataset
    log = train_run(cfg, params, data, 1e-2, epochs=2, batch_p=4, batch_k=2, seed=0)
    assert len(log) == 2 * (32 // 8)
    before = {k: v.data.copy() for k, v in params.items()}
    with pytest.raises(SamplingError, match="32 samples cannot fill one 4x9 batch"):
        train_run(cfg, params, data, 1e-2, epochs=1, batch_p=4, batch_k=9, seed=0)
    for name, value in before.items():
        assert np.array_equal(params[name].data, value), name


@pytest.mark.parametrize("seed", [-1, 1.5, None])
def test_train_run_rejects_a_bad_seed_before_any_step(seed):
    cfg, params, data = _tiny_setup()
    before = {k: v.data.copy() for k, v in params.items()}
    with pytest.raises(DomainError, match="training seed must be an integer >= 0"):
        train_run(cfg, params, data, 1e-2, epochs=1, batch_p=4, batch_k=2, seed=seed)
    for name, value in before.items():
        assert np.array_equal(params[name].data, value), name


def test_sgd_step_needs_a_parameter():
    with pytest.raises(ContractError, match="at least one parameter"):
        sgd_step({}, SgdState(0.1))


@pytest.mark.parametrize("batch_p, batch_k", [(0, 2), (2, 0), (-1, 2)])
def test_train_run_rejects_a_p_or_k_below_one_before_any_step(batch_p, batch_k):
    cfg, params, data = _tiny_setup()
    before = {k: v.data.copy() for k, v in params.items()}
    with pytest.raises(SamplingError, match="must be an integer >= 1"):
        train_run(cfg, params, data, 1e-2, epochs=1, batch_p=batch_p, batch_k=batch_k, seed=0)
    for name, value in before.items():
        assert np.array_equal(params[name].data, value), name


def test_train_run_rejects_mismatched_schedule():
    """An lr range that cannot decay is refused before any step is taken."""
    cfg, params, data = _tiny_setup()
    before = {k: v.data.copy() for k, v in params.items()}
    for lr_max in (1e-7, LR_MIN):
        with pytest.raises(ConfigError, match="lr_max > LR_MIN"):
            train_run(cfg, params, data, lr_max, epochs=1, batch_p=2, batch_k=2, seed=0)
    for name, value in before.items():
        assert np.array_equal(params[name].data, value), name


def test_train_run_derives_step_count_and_schedule():
    cfg, params, data = _tiny_setup()  # 32 samples
    log = train_run(cfg, params, data, 1e-2, epochs=3, batch_p=2, batch_k=2, seed=0)
    assert len(log) == 3 * (32 // 4)
    schedule = ScheduleConfig(lr_max=1e-2, total_steps=len(log))
    assert [r.lr for r in log] == [cosine_lr(r.step, schedule) for r in log]


def test_train_run_is_deterministic():
    runs = []
    for _ in range(2):
        cfg, params, data = _tiny_setup()
        log = train_run(cfg, params, data, 1e-2, epochs=2, batch_p=2, batch_k=2, seed=7)
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
    train_run(cfg, params, data, 1e-2, epochs=2, batch_p=2, batch_k=2, seed=0)
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
            total = losses.total_loss(
                losses.cross_entropy_loss(out.id_logits, y),
                losses.cross_entropy_loss(out.view_logits, v),
                losses.orthogonal_loss(out.meta_feature, out.view_feature))
        backward(total, tape)
        return weakref.ref(tape)

    gc.disable()
    try:
        assert step()() is None
    finally:
        gc.enable()
    assert all(p.grad is not None for p in params.values())


def _reference_pk_batch(dataset, p, k_inst, rng):
    """`pk_batch` as a loop that indexes the identities on every call."""
    by_id = {}
    for i, s in enumerate(dataset):
        by_id.setdefault(s.y, []).append(i)
    eligible = sorted(y for y, idxs in by_id.items() if len(idxs) >= k_inst)
    chosen = []
    for y in rng.choice(np.array(eligible), size=p, replace=False):
        chosen.extend(rng.choice(np.array(by_id[int(y)]), size=k_inst, replace=False))
    return [dataset[int(i)] for i in chosen]


def test_pk_batch_on_the_indexed_dataset_draws_as_on_a_plain_list():
    dataset = generate_dataset(GenConfig(num_ids=6, samples_per_id_per_view=3, grid=(2, 2),
                                         patch_dim=3, k_sig=2, seed=3))
    plain = list(dataset)
    assert type(plain) is list
    rngs = [np.random.default_rng(9) for _ in range(3)]
    for _ in range(100):
        batches = [pk_batch(dataset, 3, 4, rngs[0]), pk_batch(plain, 3, 4, rngs[1]),
                   _reference_pk_batch(plain, 3, 4, rngs[2])]
        assert [id(s) for s in batches[0]] == [id(s) for s in batches[1]] \
            == [id(s) for s in batches[2]]
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state \
        == rngs[2].bit_generator.state


def test_log_round_trip(tmp_path):
    log = [LogRow(step=0, lr=8e-3, id_loss=1.25, view_loss=0.5,
                  orth_loss=0.125, total=1.875),
           LogRow(step=1, lr=7.5e-3, id_loss=1.0, view_loss=0.25,
                  orth_loss=0.1, total=1.35)]
    path = tmp_path / "log.csv"
    write_log(path, log)
    with open(path, newline="") as f:
        back = [LogRow(step=int(rec.pop("step")),
                       **{k: float(v) for k, v in rec.items()})
                for rec in csv.DictReader(f)]
    assert back == log  # repr round-trips float64 exactly
