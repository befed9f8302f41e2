"""The names and signatures perfbench/tracer.py patches at run time.

The benchmark wraps dtst's functions from outside, by module attribute, and
its wrappers call them with fixed argument names. These tests fail when a
change to dtst would break the benchmark's clock or `--trace 1`, without
running a benchmark command.
"""

import argparse
import importlib
import inspect
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import tracer  # noqa: E402
import workloads  # noqa: E402

MODULES = ("cli", "config", "data", "evaluate", "losses", "model", "optim",
           "selector", "tensor", "train")


@pytest.fixture
def dtst():
    return argparse.Namespace(**{m: importlib.import_module(f"dtst.{m}") for m in MODULES})


def _params(fn):
    return list(inspect.signature(fn).parameters)


def test_every_traced_name_exists(dtst):
    for module, functions in tracer.TRACED.items():
        for fn in functions:
            assert callable(getattr(getattr(dtst, module), fn, None)), f"{module}.{fn}"
    for op in tracer.TENSOR_OPS:
        assert callable(getattr(dtst.tensor, op, None)), op


def test_patched_functions_take_the_arguments_the_wrappers_pass(dtst):
    # dtst.train imports these by name, so they are patched there
    assert dtst.train.Tape is dtst.tensor.Tape
    assert dtst.train.backward is dtst.tensor.backward
    assert dtst.train.pk_batch is dtst.data.pk_batch
    assert dtst.train.batch_arrays is dtst.data.batch_arrays
    assert _params(dtst.tensor.Tape.record) == ["self", "out", "inputs", "backward_fn"]
    assert _params(dtst.tensor.backward) == ["root", "tape"]
    assert _params(dtst.data.pk_batch) == ["dataset", "p", "k_inst", "rng"]
    assert _params(dtst.data.batch_arrays) == ["batch"]
    assert _params(dtst.train.train_run)[:2] == ["cfg", "params"]
    assert _params(dtst.model.encoder_block) == ["seq", "params", "index", "cfg"]
    forward = _params(dtst.model.model_forward)
    assert forward[:4] == ["cfg", "params", "x", "view_labels"]
    assert {"rng", "training"} <= set(forward)
    assert _params(dtst.evaluate.evaluate_protocol)[:4] == ["embeddings", "ids", "views", "protocol"]
    assert "split_seed" in _params(dtst.evaluate.evaluate_protocol)
    assert _params(dtst.evaluate.embed_samples)[:4] == ["cfg", "params", "samples", "batch_size"]
    assert _params(dtst.cli.main) == ["argv"]


def test_tracer_and_clock_install_and_restore(dtst):
    before = {m: dict(vars(getattr(dtst, m))) for m in MODULES}
    patches = tracer.Patches()
    tr = tracer.Tracer()
    try:
        tr.install(patches, dtst)
        tracer.Clock().install(patches, dtst)
        changed = {f"{m}.{name}" for m in MODULES for name, value in before[m].items()
                   if getattr(getattr(dtst, m), name) is not value}
        assert {"train.Tape", "train.backward", "train.pk_batch", "train.batch_arrays",
                "train.train_run", "model.model_forward", "model.encoder_block",
                "optim.sgd_step", "evaluate.embed_samples", "tensor.layer_norm"} <= changed

        # an op recorded on the tracer's Tape subclass still differentiates
        x = dtst.tensor.Tensor(np.ones((2, 3)), requires_grad=True)
        w = dtst.tensor.Tensor(np.eye(3), requires_grad=True)
        with dtst.train.Tape() as tape:
            out = dtst.tensor.tsum(dtst.tensor.linear(x, w, dtst.tensor.Tensor(np.zeros(3))))
        dtst.train.backward(out, tape)
        assert tr.tape_entries == [2]
        assert np.array_equal(w.grad, np.full((3, 3), 2.0))
    finally:
        patches.restore()
    for m in MODULES:
        module = vars(getattr(dtst, m))
        assert all(module[name] is value for name, value in before[m].items()), m


def test_traced_training_spans_one_step_per_sgd_step(dtst):
    # the tracer opens a `train.step` span in its wrapper of `data.pk_batch`
    # and closes it in its wrapper of `optim.sgd_step`, so `train_run` must
    # reach both through their module attributes once per step
    gen = dtst.data.GenConfig(num_ids=4, samples_per_id_per_view=2, grid=(2, 2),
                              patch_dim=3, k_sig=1, seed=0)
    cfg = dtst.model.ModelConfig(num_identities=4, num_blocks=1, embed_dim=4,
                                 patch_grid=(2, 2), patch_dim=3)
    patches, tr = tracer.Patches(), tracer.Tracer()
    try:
        tr.install(patches, dtst)
        log = dtst.train.train_run(cfg, dtst.model.init_params(cfg, 0),
                                   dtst.data.generate_dataset(gen), 1e-2, epochs=1,
                                   batch_p=2, batch_k=2, seed=0)
    finally:
        patches.restore()
    name, parent, t0, t1 = tr.arrays()
    steps = np.flatnonzero(name == tr.nid(tracer.STEP))
    sgd = np.flatnonzero(name == tr.nid("optim.sgd_step"))
    assert len(log) == len(steps) == len(sgd) == 4
    assert np.array_equal(parent[sgd], steps) and (t1[steps] >= t1[sgd]).all()
    assert tr.stack == []


def test_evaluate_protocol_ranks_through_the_module_attribute(dtst, monkeypatch):
    # the clock pauses in its wrapper of `evaluate.rank_gallery`, so every
    # query block must be ranked by looking that attribute up
    blocks = []
    original = dtst.evaluate.rank_gallery

    def counting(queries, *args):
        blocks.append(len(queries))
        return original(queries, *args)

    monkeypatch.setattr(dtst.evaluate, "rank_gallery", counting)
    ids = np.repeat(np.arange(4), 8)
    views = np.tile([0, 1], 16)
    embeddings = np.random.default_rng(0).normal(size=(32, 6))
    report = dtst.evaluate.evaluate_protocol(embeddings, ids, views, "ALL", split_seed=0)
    assert blocks and sum(blocks) == report.num_queries + report.num_excluded


# what perfbench's Clock and Tracer wrap on the paths of `dtst train` and
# `dtst eval`, where their callers look them up
WRAPPED = ("train.pk_batch", "train.batch_arrays", "optim.sgd_step", "data.batch_arrays",
           "model.model_forward", "model.encoder_block", "evaluate.embed_samples",
           "evaluate.evaluate_protocol", "evaluate.rank_gallery", "model.load_checkpoint")


def test_train_and_eval_call_every_wrapped_function_on_the_calling_thread(
        dtst, monkeypatch, tmp_path):
    # the Clock keeps one timeline and the Tracer one span stack, so every
    # function they wrap must run on the thread that runs the command, and
    # the tile pool's thread, which runs private code only, must be idle
    # whenever one of them is entered or returns. Tiles of 64 elements make
    # the first of two blocks of a 4-sample training step and the
    # 320-sample embedding span several; the ranking takes 160 queries
    # against 160 gallery rows in blocks of 2.
    monkeypatch.setattr(dtst.tensor, "_worker_count", lambda: 2)
    monkeypatch.setattr(dtst.tensor, "_TILE_ELEMS", 1 << 6)
    monkeypatch.setattr(dtst.evaluate, "_BLOCK_SIMILARITIES", 2 * 160)
    main = threading.get_ident()
    entered = {name: [] for name in WRAPPED}  # (thread, pool busy) per entry and return
    pool = {"busy": 0, "ran": set()}  # run functions the pool thread ran
    run_tiles = dtst.tensor._run_tiles

    def recording_tiles(run, tiles, split=False):
        def recording_run(part):
            if threading.get_ident() == main:
                return run(part)
            pool["busy"] += 1
            pool["ran"].add(run.__qualname__)
            try:
                return run(part)
            finally:
                pool["busy"] -= 1
        return run_tiles(recording_run, tiles, split)

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            entered[name].append((threading.get_ident(), pool["busy"]))
            out = fn(*args, **kwargs)
            entered[name].append((threading.get_ident(), pool["busy"]))
            return out
        return wrapper

    monkeypatch.setattr(dtst.tensor, "_run_tiles", recording_tiles)
    for name in WRAPPED:
        module, fn = name.split(".")
        monkeypatch.setattr(getattr(dtst, module), fn,
                            recording(name, getattr(getattr(dtst, module), fn)))
    queries, gallery = [], set()
    rank_gallery = dtst.evaluate.rank_gallery

    def counting(q, query_ids, parts):
        queries.append(len(q))
        gallery.add(sum(len(rows) for rows, _, _ in parts))
        return rank_gallery(q, query_ids, parts)

    monkeypatch.setattr(dtst.evaluate, "rank_gallery", counting)
    config = tmp_path / "small.cfg"
    config.write_text("seed = 0\nmodel.num_blocks = 2\nmodel.embed_dim = 8\n"
                      "model.num_heads = 2\nmodel.patch_rows = 2\nmodel.patch_cols = 2\n"
                      "model.patch_dim = 3\nselector.k = 2\nselector.heads = 2\n"
                      "selector.noise = false\ndata.num_ids = 4\ndata.train_per_id_view = 4\n"
                      "data.test_per_id_view = 40\ndata.k_sig = 2\ntrain.epochs = 1\n"
                      "train.batch_p = 2\ntrain.batch_k = 2\n")
    out = str(tmp_path / "run")
    for command in ("train", "eval"):
        assert dtst.cli.main([command, "--config", str(config), "--out", out]) == 0
    for name, calls in entered.items():
        assert calls and set(calls) == {(main, 0)}, name
    assert {"rank_gallery.<locals>.run", "_attention_fwd.<locals>.run",
            "_attention_bwd.<locals>.run", "_mlp_fwd.<locals>.run"} <= pool["ran"]
    # one pass: ceil(blocks / blocks per call) calls, all but the last full
    (g,) = gallery
    block = dtst.evaluate._BLOCK_SIMILARITIES // g
    blocks = -(-sum(queries) // block)
    assert len(queries) == -(-blocks // dtst.evaluate._CALL_BLOCKS) > 1
    assert queries[:-1] == [block * dtst.evaluate._CALL_BLOCKS] * (len(queries) - 1)


def test_embed_samples_calls_through_the_module_attributes(dtst, monkeypatch):
    # the clock marks each embedding batch in its wrapper of
    # `data.batch_arrays`, and the tracer spans `model.model_forward`, so
    # `embed_samples` must look both up on their modules at call time
    calls = {"batch_arrays": [], "model_forward": []}
    batch_arrays, model_forward = dtst.data.batch_arrays, dtst.model.model_forward

    def counting_batch(batch):
        calls["batch_arrays"].append(len(batch))
        return batch_arrays(batch)

    def counting_forward(*args, **kwargs):
        calls["model_forward"].append(len(args[2]))
        return model_forward(*args, **kwargs)

    monkeypatch.setattr(dtst.data, "batch_arrays", counting_batch)
    monkeypatch.setattr(dtst.model, "model_forward", counting_forward)
    gen = dtst.data.GenConfig(num_ids=2, samples_per_id_per_view=3, grid=(2, 2),
                              patch_dim=3, k_sig=1, seed=0)
    samples = dtst.data.generate_dataset(gen)
    cfg = dtst.model.ModelConfig(num_identities=2, num_blocks=1, embed_dim=4,
                                 patch_grid=(2, 2), patch_dim=3)
    meta, _, _, _ = dtst.evaluate.embed_samples(cfg, dtst.model.init_params(cfg, 0),
                                                samples, batch_size=5)
    assert calls["batch_arrays"] == calls["model_forward"] == [5, 5, 2]
    assert meta.shape == (12, 4)


def test_a_split_serves_what_the_checks_and_the_tracer_read(dtst):
    # checks.py takes `len` of the test split, slices every k-th row and the
    # first 32 of those, and passes that to `batch_arrays` and to
    # `embed_samples` one row at a time; the tracer iterates each batch for
    # its rows' `signal_slots`, which it intersects with ints
    gen = dtst.data.GenConfig(num_ids=4, samples_per_id_per_view=12, grid=(2, 2),
                              patch_dim=3, k_sig=2, seed=0, split="test")
    test = dtst.data.generate_dataset(gen)
    assert len(test) == 96
    subset = test[::max(1, len(test) // 32)][:32]
    assert len(subset) == 32
    x, y, v = dtst.data.batch_arrays(subset)
    assert x.shape == (32, 2, 2, 3) and y.shape == v.shape == (32,)
    assert np.array_equal(x, test.x[::3][:32])
    cfg = dtst.model.ModelConfig(num_identities=4, num_blocks=1, embed_dim=4,
                                 patch_grid=(2, 2), patch_dim=3)
    params = dtst.model.init_params(cfg, 0)
    one = dtst.evaluate.embed_samples(cfg, params, subset, batch_size=1)
    batched = dtst.evaluate.embed_samples(cfg, params, subset, batch_size=64)
    assert np.allclose(one[0], batched[0], rtol=1e-9, atol=1e-9)
    assert np.array_equal(one[2], y) and np.array_equal(one[3], v)
    slots = [s.signal_slots for s in subset]
    assert len(slots) == len(x)
    for s, row in zip(slots, subset.signal_slots):
        assert type(s) is tuple and all(type(i) is int for i in s)
        assert list(s) == row.tolist() and set(s) <= set(range(4))


def test_training_batches_each_step_in_one_call_of_each(dtst, monkeypatch):
    # the clock marks a step at each `train.pk_batch` call, counting P * K
    # samples, and the tracer reads the rows of each `train.batch_arrays`
    # call, so `train_run` calls each once per step, on a batch of P * K rows
    calls = {"pk_batch": [], "batch_arrays": []}
    pk_batch, batch_arrays = dtst.train.pk_batch, dtst.train.batch_arrays

    def counting_pk(dataset, p, k_inst, rng):
        calls["pk_batch"].append(p * k_inst)
        return pk_batch(dataset, p, k_inst, rng)

    def counting_batch(batch):
        calls["batch_arrays"].append(len(batch))
        return batch_arrays(batch)

    monkeypatch.setattr(dtst.train, "pk_batch", counting_pk)
    monkeypatch.setattr(dtst.train, "batch_arrays", counting_batch)
    gen = dtst.data.GenConfig(num_ids=4, samples_per_id_per_view=2, grid=(2, 2),
                              patch_dim=3, k_sig=1, seed=0)
    cfg = dtst.model.ModelConfig(num_identities=4, num_blocks=1, embed_dim=4,
                                 patch_grid=(2, 2), patch_dim=3)
    log = dtst.train.train_run(cfg, dtst.model.init_params(cfg, 0),
                               dtst.data.generate_dataset(gen), 1e-2, epochs=2,
                               batch_p=2, batch_k=2, seed=0)
    assert calls["pk_batch"] == calls["batch_arrays"] == [4] * len(log) == [4] * 8


def test_forward_exposes_what_the_tracer_and_checks_read(dtst, monkeypatch):
    # the tracer reads `.tokens` of each `encoder_block` input and
    # `selected_origin` of a forward; the checks read `selected_slots`
    widths = []
    encoder_block = dtst.model.encoder_block

    def recording(seq, params, index, cfg):
        widths.append(seq.tokens.shape[1])
        return encoder_block(seq, params, index, cfg)

    monkeypatch.setattr(dtst.model, "encoder_block", recording)
    cfg = dtst.model.ModelConfig(
        num_identities=2, num_blocks=2, embed_dim=4, patch_grid=(2, 2), patch_dim=3,
        selector=dtst.selector.SelectorConfig(k=1, noise_enabled=False))
    x = np.random.default_rng(0).normal(size=(3, 2, 2, 3))
    out = dtst.model.model_forward(cfg, dtst.model.init_params(cfg, 0), x, np.array([0, 1, 0]))
    assert widths == [6, 3]
    assert out.selected_slots.shape == out.selected_origin.shape == (3, 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_config_loads_with_what_run_and_checks_read(dtst, name, tmp_path):
    # run.py loads the workload's config ("" is the shipped one) from a file
    # and reads the seed, P, K and both splits' GenConfigs; checks.py reads
    # eval.split_seed and the model config
    path = ROOT / "configs" / "benchmark.cfg"
    if workloads.WORKLOADS[name].config:
        path = tmp_path / "workload.cfg"
        path.write_text(workloads.WORKLOADS[name].config)
    cfg = dtst.config.load_config(path)
    for key in ("seed", "train.batch_p", "train.batch_k", "eval.split_seed"):
        assert isinstance(cfg[key], int), key
    cfg.gen_config("train")
    cfg.gen_config("test")
    cfg.model_config()


def test_the_checkpoint_calls_of_the_clock_and_the_checks(dtst, tmp_path):
    # the clock keeps what each `load_checkpoint(path)`, with no config,
    # returns; `checks.checkpoint_roundtrip` compares that with the trained
    # params by order, shape and bytes, and `checks._trained_params` restores
    # it with `restore_params(params, arrays)`, which writes in place
    assert _params(dtst.model.load_checkpoint) == ["path", "cfg"]
    assert inspect.signature(dtst.model.load_checkpoint).parameters["cfg"].default is None
    assert _params(dtst.model.restore_params) == ["params", "arrays"]
    cfg = dtst.model.ModelConfig(num_identities=3, num_blocks=2, embed_dim=4, patch_grid=(2, 2),
                                 patch_dim=3, selector=dtst.selector.SelectorConfig(k=1))
    trained = dtst.model.init_params(cfg, 1)
    path = tmp_path / "checkpoint.bin"
    dtst.model.save_checkpoint(path, trained, cfg)
    loaded = dtst.model.load_checkpoint(path)
    assert list(loaded) == list(trained)
    for name, a in loaded.items():
        assert type(a) is np.ndarray and a.shape == trained[name].shape, name
        assert a.tobytes() == trained[name].data.tobytes(), name
    params = dtst.model.init_params(cfg, 0)
    before = {name: p.data for name, p in params.items()}
    dtst.model.restore_params(params, loaded)
    for name, p in params.items():
        assert p.data is before[name] and p.data.tobytes() == loaded[name].tobytes(), name
