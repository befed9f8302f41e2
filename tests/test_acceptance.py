"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 5 trains the full benchmark (selector vs. no-selector, 5 seeds);
criteria 7 and 8 reuse those runs via the session-scoped fixture.
"""

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from dtst import tensor as T
from dtst.config import ExperimentConfig, load_config
from dtst.losses import cross_entropy_loss, orthogonal_loss
from dtst.data import GenConfig, generate_dataset, pk_batch
from dtst.evaluate import (PROTOCOL_AG, average_precision, evaluate_protocol,
                           embed_samples, inverse_negative_penalty, unit_rows,
                           write_reports)
from dtst.gradcheck import check_model_gradients, relative_error
from dtst.model import (ModelConfig, init_params, model_forward,
                        save_checkpoint)
from dtst.optim import ScheduleConfig, cosine_lr
from dtst.selector import SelectorConfig, hard_topk, perturbed_topk, score_tokens
from dtst.tensor import Tape, Tensor, backward
from dtst.train import train_run, write_log

from conftest import VERDICTS, whole_gallery_ranks


def verdict(num, label, ok, detail=""):
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    VERDICTS.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


def _fd(f, arr, step=1e-6):
    g = np.zeros_like(arr)
    flat, gflat = arr.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f()
        flat[i] = orig - step
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return g


def _op_cases():
    """(name, op, input array) for every differentiable op: op maps a Tensor
    made from the array to the Tensor whose sum is differenced."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 4))
    pos = np.abs(x) + 0.5
    y2 = rng.normal(size=(2, 3, 4)) + 3.0
    w_mat = Tensor(rng.normal(size=(4, 5)))
    w_mix = Tensor(rng.normal(size=(2, 3, 4)))
    gamma = Tensor(rng.normal(size=4))
    beta = Tensor(rng.normal(size=4))
    b_vec = Tensor(rng.normal(size=5))
    w_lin = Tensor(rng.normal(size=(2, 3, 5)))
    cases = [
        ("add", lambda t: T.add(t, Tensor(y2)), x),
        ("sub", lambda t: T.sub(t, Tensor(y2)), x),
        ("mul", lambda t: T.mul(t, Tensor(y2)), x),
        ("div", lambda t: T.div(t, Tensor(y2)), x),
        ("log", T.log, pos),
        ("sqrt", T.sqrt, pos),
        ("clip_min", lambda t: T.clip_min(t, 1e-3), pos),
        ("gelu", T.gelu, x),
        ("tsum", lambda t: T.tsum(t, axis=1), x),
        ("reshape", lambda t: T.reshape(t, (6, 4)), x),
        ("transpose", lambda t: T.transpose(t, (2, 0, 1)), x),
        ("broadcast_to",
         lambda t: T.broadcast_to(T.reshape(t, (2, 3, 4, 1)), (2, 3, 4, 2)), x),
        ("narrow", lambda t: T.narrow(t, 1, 1, 2), x),
        ("concat", lambda t: T.concat([t, T.mul(t, t)], axis=1), x),
        ("matmul", lambda t: T.matmul(t, w_mat), x),
        ("softmax_lastdim",
         lambda t: T.mul(T.softmax_lastdim(t), w_mix), x),
        ("log_softmax_lastdim",
         lambda t: T.mul(T.log_softmax_lastdim(t), w_mix), x),
        ("layer_norm", lambda t: T.layer_norm(t, gamma, beta), x),
        ("gather_tokens",
         lambda t: T.gather_tokens(t, np.array([[0, 2], [1, 1]])), x),
        ("gather_lastdim",
         lambda t: T.gather_lastdim(T.reshape(t, (6, 4)), np.arange(6) % 4), x),
        ("linear", lambda t: T.mul(T.linear(t, w_mat, b_vec), w_lin), x),
        ("linear.w", lambda t: T.mul(T.linear(Tensor(x), t, b_vec), w_lin), w_mat.data),
        ("linear.b", lambda t: T.mul(T.linear(Tensor(x), w_mat, t), w_lin), b_vec.data),
        ("layer_norm.gamma", lambda t: T.mul(T.layer_norm(Tensor(x), t, beta), w_mix),
         gamma.data),
        ("layer_norm.beta", lambda t: T.mul(T.layer_norm(Tensor(x), gamma, t), w_mix),
         beta.data),
        ("sub_slot", lambda t: T.mul(T.sub_slot(t, 0, 1), w_mix), x),
        ("cross_entropy_loss",
         lambda t: cross_entropy_loss(T.reshape(t, (6, 4)), np.arange(6) % 4), x),
        ("orthogonal_loss.meta",
         lambda t: orthogonal_loss(T.reshape(t, (6, 4)), Tensor(y2.reshape(6, 4))), x),
        ("orthogonal_loss.view",
         lambda t: orthogonal_loss(Tensor(y2.reshape(6, 4)), T.reshape(t, (6, 4))), x),
    ]
    # attention on a K+2-token sequence (K=2) with 1, 2 and 4 heads; each
    # input differenced on its own, the Q, K and V weights and biases side by
    # side as the op takes them
    seq = rng.normal(size=(2, 4, 8))
    att_w = [rng.normal(size=(8, 8)) * 0.5 for _ in range(4)]
    att_b = [rng.normal(size=8) * 0.1 for _ in range(4)]
    w_att = Tensor(rng.normal(size=(2, 4, 8)))
    att_args = {"x": seq, "w_qkv": np.concatenate(att_w[:3], axis=1),
                "b_qkv": np.concatenate(att_b[:3]), "w_o": att_w[3], "b_o": att_b[3]}

    def attention_case(heads, which):
        def op(t):
            args = {name: t if name == which else Tensor(a) for name, a in att_args.items()}
            return T.mul(T.attention(*args.values(), heads), w_att)
        return (f"attention[h={heads}].{which}", op, att_args[which])

    for heads in (1, 2, 4):
        cases.append(attention_case(heads, "x"))
    for which in ("w_qkv", "b_qkv", "w_o", "b_o"):
        cases.append(attention_case(2, which))
    # the fused MLP, x [2, 3, 4] through a hidden width of 8; each input
    # differenced on its own
    mlp_args = {"x": x, "w1": rng.normal(size=(4, 8)), "b1": rng.normal(size=8) * 0.1,
                "w2": rng.normal(size=(8, 4)), "b2": rng.normal(size=4) * 0.1}

    def mlp_case(which):
        def op(t):
            args = {name: t if name == which else Tensor(a) for name, a in mlp_args.items()}
            return T.mul(T.mlp(*args.values()), w_mix)
        return (f"mlp.{which}", op, mlp_args[which])

    cases.extend(mlp_case(which) for which in mlp_args)
    return cases


def _worst_case(cases):
    """(name, rel err) of the case whose autodiff gradient is furthest from
    its finite differences."""
    worst = ("", 0.0)
    for name, op, arr in cases:
        arr = arr.copy()
        t = Tensor(arr, requires_grad=True)
        with Tape() as tape:
            out = T.tsum(op(t))
        backward(out, tape)
        fd = _fd(lambda: op(Tensor(arr)).data.sum(), arr)
        err = relative_error(t.grad, fd)
        if err > worst[1]:
            worst = (name, err)
    return worst


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    op_name, op_err = _worst_case(_op_cases())

    cfg = ModelConfig(num_identities=4, num_blocks=2, embed_dim=8,
                      num_attn_heads=2, patch_grid=(2, 2), patch_dim=3,
                      selector=SelectorConfig(k=2, noise_enabled=False))
    gen = GenConfig(num_ids=4, samples_per_id_per_view=1, grid=(2, 2),
                    patch_dim=3, k_sig=2, seed=0)
    data = generate_dataset(gen)[:2]
    x = np.stack([s.x for s in data])
    y = np.array([s.y for s in data])
    v = np.array([s.v for s in data])
    params = init_params(cfg, seed=0)
    results = check_model_gradients(cfg, params, x, y, v, max_coords=None)
    e2e_err = max(r.rel_err for r in results)
    elapsed = time.perf_counter() - start

    ok = op_err < 1e-4 and e2e_err < 1e-3 and elapsed < 60
    verdict(1, "gradient suite", ok,
            f"op worst {op_err:.2e} [{op_name}], end-to-end worst {e2e_err:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_1_fused_cases_across_tiles(monkeypatch):
    # criterion 1's MLP and attention cases once more, with 4-element tiles:
    # the MLP's [6, 8] hidden layer then runs as 3 tiles of two rows and each
    # attention forward and backward as 2, one per sequence of the batch
    monkeypatch.setattr(T, "_TILE_ELEMS", 4)
    assert len(T._row_tiles(6, 8, min_rows=2)) == 3
    assert all(len(T._row_tiles(2, heads * 4 * 4)) == 2 for heads in (1, 2, 4))
    cases = [c for c in _op_cases() if c[0].startswith(("mlp.", "attention["))]
    assert len(cases) == 12
    name, err = _worst_case(cases)
    assert err < 1e-4, (name, err)


# ---------------------------------------------------------------------------
# criterion 2: metric oracle suite


def test_criterion_2_metric_oracles():
    start = time.perf_counter()

    hand_ap = average_precision([1, 3])  # matches at ranks 1 and 3 of 3
    hand_inp = inverse_negative_penalty([1, 3])
    hand_ok = hand_ap == pytest.approx(5 / 6, abs=1e-15) and \
        hand_inp == pytest.approx(2 / 3, abs=1e-15)

    rng = np.random.default_rng(0)
    exact = True
    for _ in range(500):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 5))
        query = rng.normal(size=d)
        gallery = rng.normal(size=(n, d))
        qid = int(rng.integers(0, 3))
        gids = rng.integers(0, 3, size=n)
        if not (gids == qid).any():
            gids[rng.integers(0, n)] = qid
        (ranks,) = whole_gallery_ranks(unit_rows(query[None]), [qid], unit_rows(gallery), gids)

        # brute-force oracle: full sort by cosine, then definitional sums
        sims = [float(g @ query / (np.linalg.norm(g) * np.linalg.norm(query)))
                for g in gallery]
        order = sorted(range(n), key=lambda i: (-sims[i], i))
        ref_flags = [gids[i] == qid for i in order]
        total = sum(ref_flags)
        seen, ap_terms = 0, []
        for r, f in enumerate(ref_flags, 1):
            if f:
                seen += 1
                ap_terms.append(seen / r)
        ref_ap = sum(ap_terms) / total
        ref_inp = total / max(r for r, f in enumerate(ref_flags, 1) if f)
        ref_rank1 = ref_flags[0]

        ref_ranks = [r for r, f in enumerate(ref_flags, 1) if f]
        if (ranks != ref_ranks
                or abs(average_precision(ranks) - ref_ap) > 1e-12
                or abs(inverse_negative_penalty(ranks) - ref_inp) > 1e-12
                or (ranks[0] == 1) != ref_rank1):
            exact = False
            break

    elapsed = time.perf_counter() - start
    ok = hand_ok and exact and elapsed < 10
    verdict(2, "metric oracle suite", ok,
            f"hand AP={hand_ap:.6f} INP={hand_inp:.6f}, "
            f"500 random instances exact, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: selector limit laws


def test_criterion_3_selector_limit_laws():
    start = time.perf_counter()

    # noise-off indices equal hard_topk of the logits bitwise
    rng = np.random.default_rng(1)
    logits = score_tokens(rng.normal(size=(16, 8, 4)))
    bitwise = np.array_equal(perturbed_topk(logits, 3), hard_topk(logits, 3))

    # Gumbel Monte-Carlo with K = 1: selection frequency of each index
    # matches softmax(logits)_i = s_i
    s = np.array([0.5, 0.3, 0.15, 0.05])
    draws = 10 ** 5
    idx = perturbed_topk(np.tile(np.log(s), (draws, 1)), 1, noise=True,
                         rng=np.random.default_rng(2))
    freq = np.bincount(idx[:, 0], minlength=4) / draws
    mc_dev = float(np.abs(freq - s).max())

    # logits scaled by 1/0.01 concentrate the noisy choice on the argmax
    sharp = np.tile(np.log([0.7, 0.2, 0.1]) / 0.01, (draws, 1))
    idx = perturbed_topk(sharp, 1, noise=True, rng=np.random.default_rng(3))
    mass = float(np.mean(idx[:, 0] == 0))

    elapsed = time.perf_counter() - start
    ok = mass >= 0.99 and bitwise and mc_dev < 0.01 and elapsed < 30
    verdict(3, "selector limit laws", ok,
            f"argmax share {mass:.4f}, noise-off bitwise {bitwise}, "
            f"MC deviation {mc_dev:.4f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: full-retention equivalence


def test_criterion_4_full_retention_equivalence():
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(20):
        d = int(rng.choice([8, 12, 16]))
        heads = int(rng.choice([1, 2, 4]))
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        m = rows * cols
        blocks = int(rng.integers(1, 4))
        position = str(rng.choice(["last", "second_to_last"]))
        if blocks == 1:
            # one block has no block before the final one; the draw stays in
            # the random stream, and the selector goes in front of block 0
            position = "last"
        selcfg = SelectorConfig(k=m, position=position, noise_enabled=False)
        base = dict(num_identities=int(rng.integers(2, 6)), num_blocks=blocks,
                    embed_dim=d, num_attn_heads=heads, patch_grid=(rows, cols),
                    patch_dim=int(rng.integers(2, 5)))
        cfg_sel = ModelConfig(selector=selcfg, **base)
        cfg_plain = ModelConfig(selector=None, **base)
        params = init_params(cfg_sel, seed=trial)
        b = int(rng.integers(1, 4))
        x = rng.normal(size=(b, rows, cols, base["patch_dim"]))
        v = rng.integers(0, 2, size=b)
        a = model_forward(cfg_sel, params, x, v)
        c = model_forward(cfg_plain, params, x, v)
        dev = max(np.abs(a.id_logits.data - c.id_logits.data).max(),
                  np.abs(a.view_logits.data - c.view_logits.data).max(),
                  np.abs(a.meta_feature.data - c.meta_feature.data).max())
        worst = max(worst, dev)
    ok = worst < 1e-12
    verdict(4, "full-retention equivalence", ok,
            f"20 random configs, worst deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# criteria 5/7/8: shared benchmark runs


BENCH_SEEDS = (0, 1, 2, 3, 4)

# the benchmark setup, as configs/benchmark.cfg gives it (checked by
# test_criterion_5_setup_matches_benchmark_cfg)
BENCH_CFG = Path(__file__).resolve().parent.parent / "configs" / "benchmark.cfg"
BENCH_MODEL = dict(num_identities=32, num_blocks=4, embed_dim=16, num_attn_heads=2,
                   patch_grid=(4, 4), patch_dim=8)
BENCH_SELECTOR = SelectorConfig(k=2, position="last", noise_enabled=False)
BENCH_DATA = dict(num_ids=32, grid=(4, 4), patch_dim=8, k_sig=3, noise_std=1.0,
                  view_offset_scale=2.0)
BENCH_TRAIN_PER_ID_VIEW, BENCH_TEST_PER_ID_VIEW = 8, 32
BENCH_LR_MAX = 8e-3
BENCH_EPOCHS = 30
BENCH_P, BENCH_K = 8, 4
BENCH_SPLIT_SEED = 0


@dataclass
class BenchRun:
    seed: int
    with_selector: bool
    rank1: float
    mean_abs_cos: float
    params: dict
    log: list
    report: object


def _bench_model_cfg(with_selector):
    return ModelConfig(selector=BENCH_SELECTOR if with_selector else None, **BENCH_MODEL)


def _bench_gen_configs(seed):
    """The train and test GenConfigs of the benchmark run with seed `seed`."""
    train_gen = GenConfig(samples_per_id_per_view=BENCH_TRAIN_PER_ID_VIEW, seed=seed,
                          sample_seed=seed + 1, **BENCH_DATA)
    test_gen = replace(train_gen, samples_per_id_per_view=BENCH_TEST_PER_ID_VIEW,
                       sample_seed=seed + 2)
    return train_gen, test_gen


def _bench_run(seed, with_selector):
    cfg = _bench_model_cfg(with_selector)
    train_gen, test_gen = _bench_gen_configs(seed)
    train_data = generate_dataset(train_gen)
    test_data = generate_dataset(test_gen)
    params = init_params(cfg, seed)
    log = train_run(cfg, params, train_data, BENCH_LR_MAX, epochs=BENCH_EPOCHS,
                    batch_p=BENCH_P, batch_k=BENCH_K, seed=seed)
    meta, view_feat, ids, views = embed_samples(cfg, params, test_data)
    report = evaluate_protocol(meta, ids, views, PROTOCOL_AG, split_seed=BENCH_SPLIT_SEED)
    cos = (meta * view_feat).sum(-1) / (
        np.linalg.norm(meta, axis=-1) * np.linalg.norm(view_feat, axis=-1))
    return BenchRun(seed=seed, with_selector=with_selector,
                    rank1=report.rank1, mean_abs_cos=float(np.abs(cos).mean()),
                    params=params, log=log, report=report)


@pytest.fixture(scope="session")
def benchmark_runs():
    # each run is self-seeded, so it gives the same bytes in any process;
    # criterion 8 checks that against the seed-0 runs repeated in this
    # process while the pool works. The longer no-selector runs go first, so
    # that the two workers finish together.
    start = time.perf_counter()
    keys = [(seed, with_selector) for with_selector in (False, True)
            for seed in BENCH_SEEDS]
    with ProcessPoolExecutor(max_workers=2,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        pending = pool.map(_bench_run, *zip(*keys))
        repeats = {with_selector: _bench_run(0, with_selector)
                   for with_selector in (True, False)}
        runs = dict(zip(keys, pending))
    return runs, time.perf_counter() - start, repeats


def test_criterion_5_directional_ablation(benchmark_runs):
    runs, elapsed, _ = benchmark_runs
    gaps = [100.0 * (runs[(s, True)].rank1 - runs[(s, False)].rank1)
            for s in BENCH_SEEDS]
    mean_gap = float(np.mean(gaps))
    ok = mean_gap >= 3.0 and elapsed < 600
    verdict(5, "directional ablation", ok,
            f"A<->G Rank-1 gap per seed {['%+.1f' % g for g in gaps]}, "
            f"mean {mean_gap:+.2f} points, {elapsed:.0f}s")


def test_criterion_5_setup_matches_benchmark_cfg():
    cfg = load_config(BENCH_CFG)
    off = ExperimentConfig(values={**cfg.values, "selector.enabled": False})
    assert _bench_model_cfg(True) == cfg.model_config()
    assert _bench_model_cfg(False) == off.model_config()
    for seed in BENCH_SEEDS:
        seeded = ExperimentConfig(values={**cfg.values, "seed": seed})
        assert _bench_gen_configs(seed) == (seeded.gen_config("train"),
                                            seeded.gen_config("test")), seed
    assert (BENCH_LR_MAX, BENCH_EPOCHS, BENCH_P, BENCH_K, BENCH_SPLIT_SEED) == (
        cfg["schedule.lr_max"], cfg["train.epochs"], cfg["train.batch_p"],
        cfg["train.batch_k"], cfg["eval.split_seed"])


def test_criterion_6_schedule_and_pk_batches():
    cfg = ScheduleConfig(lr_max=8e-3, total_steps=480)
    endpoints = cosine_lr(0, cfg) == 8e-3 and cosine_lr(480, cfg) == 1.6e-6

    gen = GenConfig(num_ids=32, samples_per_id_per_view=8, grid=(4, 4),
                    patch_dim=8, k_sig=3, seed=0)
    data = generate_dataset(gen)
    batch = pk_batch(data, p=32, k_inst=4, rng=np.random.default_rng(0))
    counts = {}
    for s in batch:
        counts[s.y] = counts.get(s.y, 0) + 1
    pk_ok = (len(batch) == 128 and len(counts) == 32
             and all(c == 4 for c in counts.values()))

    ok = endpoints and pk_ok
    verdict(6, "schedule endpoints and PK batching", ok,
            f"lr(0)={cosine_lr(0, cfg)!r}, lr(T)={cosine_lr(480, cfg)!r}, "
            f"batch 32x4={len(batch)}")


def test_criterion_7_orthogonality(benchmark_runs):
    runs, _, _ = benchmark_runs
    worst = max(r.mean_abs_cos for r in runs.values())
    ok = worst < 0.1
    verdict(7, "orthogonality", ok,
            f"max over 10 runs of mean |cos(meta, view)| = {worst:.4f}")


def test_criterion_8_determinism(benchmark_runs, tmp_path):
    runs, _, repeats = benchmark_runs

    def artifacts(run, tag):
        base = tmp_path / tag
        base.mkdir(exist_ok=True)
        write_log(base / "train_log.csv", run.log)
        save_checkpoint(base / "checkpoint.bin", run.params,
                        _bench_model_cfg(run.with_selector))
        write_reports(base / "report.jsonl", [run.report])
        return [(base / name).read_bytes()
                for name in ("train_log.csv", "checkpoint.bin", "report.jsonl")]

    identical = True
    for with_selector in (True, False):
        first = artifacts(runs[(0, with_selector)], f"first_{with_selector}")
        repeat = artifacts(repeats[with_selector], f"repeat_{with_selector}")
        if first != repeat:
            identical = False
    verdict(8, "determinism", identical,
            "seed-0 rerun logs/checkpoints/reports byte-identical")
