"""A steady-state training step reuses the memory it already holds.

A `configs/benchmark.cfg` step used to take 160 to 650 minor page faults,
by what the process had done before: its activations were freed at the end
of every step, handed back to the OS by the allocator and faulted in again
by the next. The step now reuses its own buffers. The count is taken in a
fresh `spawn` process, so that what earlier tests allocated does not shape
the allocator's state.

The tiled kernels, which run only on arrays beyond the one-tile budget, are
held to their peak memory instead. A step of that size frees about 18 MB
at its end, and whether glibc hands that back to the OS, to be faulted in
again by the next step, depends on which allocation happens to sit at the
top of the heap: the same one-block d = 32, 8x8-grid step takes 32 or
about 4000 faults on alternate steps.
"""

import multiprocessing
import os
import statistics
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from dtst import tensor as T

BENCHMARK_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.cfg")
STEPS = 120
WARM_UP = 20
MAX_FAULTS_PER_STEP = 100

def _faults_per_step(config_path, steps):
    """Train on the config's train split for at least `steps` steps; the
    minor page faults of each step, read after each `sgd_step`."""
    import resource

    from dtst import config, data, model, optim, train

    cfg = config.load_config(config_path)
    model_cfg = cfg.model_config()
    dataset = data.generate_dataset(cfg.gen_config("train"))
    per_epoch = len(dataset) // (cfg["train.batch_p"] * cfg["train.batch_k"])
    marks = [resource.getrusage(resource.RUSAGE_SELF).ru_minflt]
    step = optim.sgd_step

    def counted(params, state):
        step(params, state)
        marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    optim.sgd_step = counted  # train_run looks it up on the module
    train.train_run(model_cfg, model.init_params(model_cfg, cfg["seed"]), dataset,
                    cfg["schedule.lr_max"], -(-steps // per_epoch), cfg["train.batch_p"],
                    cfg["train.batch_k"], seed=cfg["seed"])
    return [b - a for a, b in zip(marks, marks[1:])]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_minflt counts minor page faults on Linux")
def test_steady_state_step_takes_few_page_faults():
    with ProcessPoolExecutor(max_workers=1,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        faults = pool.submit(_faults_per_step, BENCHMARK_CFG, STEPS).result(timeout=300)
    assert len(faults) >= STEPS
    median = statistics.median(faults[WARM_UP:STEPS])
    assert median < MAX_FAULTS_PER_STEP, (median, faults[WARM_UP:STEPS])


# The tiled kernels at the shapes of a d = 32, 8x8-grid step (B = 32, T = 66,
# H = 4), where the MLP hidden layer ([2112, 128]) and the attention matrix
# ([32, 4, 66, 66]) exceed the one-tile budget. numpy reports its array
# memory to tracemalloc, so each test reads the peak an op adds.
B, TOKENS, WIDTH, HEADS = 32, 66, 32, 4
TILE_BYTES = 8 * T._TILE_ELEMS
SLACK = 256 << 10  # the Python objects an op makes, traced as well


def _peak_bytes(fn):
    """Peak traced memory that `fn()` adds over what is live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _wide_inputs(rng, *shapes):
    return [T.Tensor(rng.normal(size=s) * 0.2, requires_grad=True) for s in shapes]


def test_tiled_mlp_holds_the_hidden_layer_its_slope_and_two_tiles():
    rng = np.random.default_rng(0)
    hidden = 4 * WIDTH
    args = _wide_inputs(rng, (B, TOKENS, WIDTH), (WIDTH, hidden), (hidden,),
                        (hidden, WIDTH), (WIDTH,))
    assert len(T._row_tiles(B * TOKENS, hidden)) > 1
    hidden_bytes = 8 * B * TOKENS * hidden

    def forward():
        with T.Tape():
            T.mlp(*args)
    assert _peak_bytes(forward) < 2 * hidden_bytes + 2 * TILE_BYTES + SLACK


def test_tiled_attention_backward_holds_no_whole_scores_gradient():
    rng = np.random.default_rng(0)
    x, *params = _wide_inputs(rng, (B, TOKENS, WIDTH), (WIDTH, 3 * WIDTH), (3 * WIDTH,),
                              (WIDTH, WIDTH), (WIDTH,))
    assert len(T._row_tiles(B, HEADS * TOKENS * TOKENS)) > 1
    with T.Tape() as tape:
        T.attention(x, *params, HEADS)
    (_, _, bwd), = tape.entries
    g = rng.normal(size=(B, TOKENS, WIDTH))
    # its gradients: g @ wo^T and the input's gradient, [B*T, d] each
    outputs = 2 * 8 * B * TOKENS * WIDTH
    # and one scratch tile of whole sequences, up to half a tile over size
    assert _peak_bytes(lambda: bwd(g)) < outputs + 3 * TILE_BYTES // 2 + SLACK


def test_untracked_attention_and_mlp_hold_their_outputs_and_a_few_tiles():
    # an eval batch of 64: whole, its scores [64, 4, 66, 66] would take
    # 8.9 MB, its Q/K/V 3.2 MB and its MLP hidden layer 4.3 MB
    rng = np.random.default_rng(0)
    b, hidden = 2 * B, 4 * WIDTH
    x, *params = _wide_inputs(rng, (b, TOKENS, WIDTH), (WIDTH, 3 * WIDTH), (3 * WIDTH,),
                              (WIDTH, WIDTH), (WIDTH,),
                              (WIDTH, hidden), (hidden,), (hidden, WIDTH), (WIDTH,))
    assert len(T._row_tiles(b, HEADS * TOKENS * TOKENS)) > 1
    assert len(T._row_tiles(b * TOKENS, hidden, min_rows=2)) > 1

    def forward():
        T.mlp(T.attention(x, *params[:4], HEADS), *params[4:])
    outputs = 2 * 8 * b * TOKENS * WIDTH
    assert _peak_bytes(forward) < outputs + 3 * TILE_BYTES + SLACK
