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
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracer  # noqa: E402

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
            out = dtst.tensor.tsum(dtst.tensor.linear(x, w))
        dtst.train.backward(out, tape)
        assert tr.tape_entries == [2]
        assert np.array_equal(w.grad, np.full((3, 3), 2.0))
    finally:
        patches.restore()
    for m in MODULES:
        module = vars(getattr(dtst, m))
        assert all(module[name] is value for name, value in before[m].items()), m


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
