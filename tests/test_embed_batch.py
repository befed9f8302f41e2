"""The default embedding batch (`evaluate.embed_batch_size`).

`embed_samples` takes as many samples a forward as fit EMBED_ROWS token
rows, in a power of two: 256 on the 4x4 grid of `configs/benchmark.cfg`,
where the attention scores and the MLP hidden layer then span several
tiles and may run on two threads. These tests hold the rule, the load-time
bound that counts the batch, and the embeddings to the bits of 64-sample
batches on one thread and on two.
"""

import os

import numpy as np
import pytest

from dtst import data, evaluate, model
from dtst import tensor as T
from dtst.config import load_config
from dtst.selector import SelectorConfig

BENCHMARK_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.cfg")


def _grid_config(grid, **kw):
    return model.ModelConfig(num_identities=32, patch_grid=grid, **kw)


@pytest.mark.parametrize("grid, batch", [
    ((4, 4), 256),      # 18 rows a sample: 455 fit
    ((8, 8), 64),       # 66 rows: 124 fit
    ((1, 4094), 2),     # 4096 rows: exactly 2 fit
    ((1, 8190), 1),     # 8192 rows: exactly 1 fits
    ((91, 91), 1),      # 8283 rows: none fits, and the batch is still 1
], ids=["4x4", "8x8", "two_fit", "one_fits", "none_fits"])
def test_default_batch_is_the_largest_power_of_two_that_fits(grid, batch):
    assert evaluate.embed_batch_size(_grid_config(grid)) == batch


def test_the_load_time_bound_counts_the_default_batch():
    # configs/benchmark.cfg: 4x4 grid of 8-d patches, d = 16, 2 heads, and
    # a training batch of 32, smaller than the embedding's 256
    counts = {count for _, count in load_config(BENCHMARK_CFG)._array_extents()}
    b, m, d = 256, 16, 16
    assert {b * m * 8, b * (m + 2) * 4 * d, b * 2 * (m + 2) ** 2} <= counts


@pytest.mark.parametrize("workers", [1, 2])
def test_default_batch_embeds_the_bits_of_64_sample_batches(workers, monkeypatch):
    # 640 samples: two whole batches of 256 and a last one of 128
    monkeypatch.setattr(T, "_worker_count", lambda: workers)
    cfg = _grid_config((4, 4), num_blocks=4, embed_dim=16, num_attn_heads=2,
                       selector=SelectorConfig(k=2, noise_enabled=False))
    b = evaluate.embed_batch_size(cfg)
    assert b == 256
    assert len(T._row_tiles(b, 2 * 18 * 18)) > 1           # the scores
    assert len(T._row_tiles(b * 18, 4 * 16, min_rows=2)) > 1  # the MLP hidden layer
    split = data.generate_dataset(data.GenConfig(num_ids=32, samples_per_id_per_view=10,
                                                 seed=3, split="test"))
    assert len(split) == 640
    params = model.init_params(cfg, 4)
    calls, forward = [], model.model_forward

    def counted(cfg, params, x, *args, **kw):
        calls.append(len(x))
        return forward(cfg, params, x, *args, **kw)

    monkeypatch.setattr(model, "model_forward", counted)
    got = evaluate.embed_samples(cfg, params, split)
    assert calls == [256, 256, 128]
    want = evaluate.embed_samples(cfg, params, split, batch_size=64)
    for a, w in zip(got, want):
        assert a.dtype == w.dtype and a.shape == w.shape
        assert a.tobytes() == w.tobytes()
