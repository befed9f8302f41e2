"""A steady-state training step reuses the memory it already holds.

A `configs/benchmark.cfg` step used to take 160 to 650 minor page faults,
by what the process had done before: its activations were freed at the end
of every step, handed back to the OS by the allocator and faulted in again
by the next. The step now reuses its own buffers. The count is taken in a
fresh `spawn` process, so that what earlier tests allocated does not shape
the allocator's state.
"""

import multiprocessing
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

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
                    cfg["schedule.lr_max"], cfg["schedule.lr_min"], cfg.loss_weights(),
                    -(-steps // per_epoch), cfg["train.batch_p"], cfg["train.batch_k"],
                    seed=cfg["seed"], momentum=cfg["train.momentum"])
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
