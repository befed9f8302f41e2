"""The benchmark's three workloads.

Each workload is a dtst config plus the number of train+eval rounds a run
makes, all doing the same work. A fixed number keeps every run's medians
made of the same rounds (the first command of a process runs slower than
the rest).

Round 0 is the reference round: it uses dtst seed 0 in every run (for
`bench_cfg` that is the shipped config's own seed), and the quality metrics
come from it alone, so they are the same for every `--seed` and move only
when the program's numbers move. Round r >= 1 of a run with seed s uses
dtst seed 1000 * s + r, so the timed work also covers inputs made from the
seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str       # config text; "" means configs/benchmark.cfg as shipped
    rounds: int       # train+eval rounds per run (at least two, see above)
    evals: int        # `dtst eval` repeats per round (lengthens the eval phases)
    chunk_steps: int  # training steps per timed chunk, about 0.3 s of work


WIDE_GRID = """\
seed = 0
model.num_blocks = 4
model.embed_dim = 32
model.num_heads = 4
model.patch_rows = 8
model.patch_cols = 8
model.patch_dim = 8
selector.enabled = true
selector.k = 8
selector.heads = 4
selector.position = last
selector.temperature = 1.0
selector.noise = true
data.num_ids = 8
data.train_per_id_view = 16
data.test_per_id_view = 32
data.k_sig = 8
data.noise_std = 0.5
data.view_offset_scale = 1.0
schedule.lr_max = 0.02
train.epochs = 4
train.batch_p = 8
train.batch_k = 4
"""

LARGE_GALLERY = """\
seed = 0
model.num_blocks = 4
model.embed_dim = 16
model.num_heads = 2
model.patch_rows = 4
model.patch_cols = 4
model.patch_dim = 8
selector.enabled = true
selector.k = 2
selector.heads = 2
selector.position = last
selector.noise = false
data.num_ids = 32
data.train_per_id_view = 8
data.test_per_id_view = 128
data.k_sig = 3
schedule.lr_max = 0.03
train.epochs = 20
train.batch_p = 8
train.batch_k = 4
"""

WORKLOADS = {w.name: w for w in (
    Workload("bench_cfg",
             "configs/benchmark.cfg as shipped: the ROADMAP's unit of work, a "
             "step bound by per-op overhead on small arrays",
             "", rounds=2, evals=4, chunk_steps=16),
    Workload("wide_grid",
             "d=32 on an 8x8 grid with K=8 and Gumbel noise: a step bound by "
             "array work, a large selector cut and tape memory that grows",
             WIDE_GRID, rounds=3, evals=3, chunk_steps=2),
    Workload("large_gallery",
             "an 8192-sample test split: per-query ranking over six protocols "
             "and dataset generation dominate",
             LARGE_GALLERY, rounds=2, evals=1, chunk_steps=16),
)}


def dtst_seed(seed: int, round_index: int) -> int:
    return 0 if round_index == 0 else 1000 * seed + round_index
