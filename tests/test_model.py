"""Backbone tests: shapes, embedding oracles, decoupling, selector plumbing,
checkpoint round-trips."""

import numpy as np
import pytest

from dtst import model
from dtst import tensor as T
from dtst.errors import ConfigError, DimensionError, DomainError, NumericError
from dtst.losses import LossWeights, cross_entropy_loss, orthogonal_loss, total_loss
from dtst.model import (ModelConfig, attach_special_tokens, encoder_block,
                        init_params, load_checkpoint, model_forward, patch_embed,
                        restore_params, save_checkpoint, vdt_decouple)
from dtst.selector import SelectorConfig, hard_topk
from dtst.tensor import Tape, Tensor

RNG = np.random.default_rng(99)


def small_cfg(selector=None, **kw):
    base = dict(num_identities=5, num_blocks=2, embed_dim=8, num_attn_heads=2,
                patch_grid=(2, 3), patch_dim=4, selector=selector)
    base.update(kw)
    return ModelConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError, match="divide"):
        small_cfg(embed_dim=9)
    with pytest.raises(ConfigError, match="exceeds M"):
        small_cfg(selector=SelectorConfig(k=7))
    with pytest.raises(ConfigError, match="selector heads"):
        small_cfg(selector=SelectorConfig(k=2, num_heads=3))


def test_forward_shapes():
    cfg = small_cfg()
    params = init_params(cfg, seed=0)
    b = 4
    x = RNG.normal(size=(b, 2, 3, 4))
    v = np.array([0, 1, 0, 1])
    out = model_forward(cfg, params, x, v)
    assert out.meta_feature.shape == (b, 8)
    assert out.view_feature.shape == (b, 8)
    assert out.id_logits.shape == (b, 5)
    assert out.view_logits.shape == (b, 2)
    assert out.selected_slots is None


def test_patch_embed_zero_input_is_bias_plus_positions():
    cfg = small_cfg()
    params = init_params(cfg, seed=3)
    out = patch_embed(np.zeros((2, 2, 3, 4)), params, cfg)
    expected = params["patch_embed.b"].data + params["pos_embed"].data
    assert np.allclose(out.data, expected[None], atol=1e-15)


def test_patch_embed_shape_error():
    cfg = small_cfg()
    params = init_params(cfg, seed=0)
    with pytest.raises(DimensionError, match="grid shape"):
        patch_embed(np.zeros((1, 3, 3, 4)), params, cfg)


def test_non_finite_grid_is_rejected():
    cfg = small_cfg(selector=SelectorConfig(k=2, noise_enabled=False))
    params = init_params(cfg, seed=0)
    v = np.array([0, 1])
    with pytest.raises(NumericError, match="non-finite"):
        model_forward(cfg, params, np.full((2, 2, 3, 4), np.nan), v)
    for bad in (np.nan, np.inf, -np.inf):
        x = np.zeros((2, 2, 3, 4))
        x[1, 0, 2, 3] = bad
        with pytest.raises(NumericError, match="1 non-finite"):
            model_forward(cfg, params, x, v)


def test_attach_special_tokens_layout_and_errors():
    cfg = small_cfg()
    params = init_params(cfg, seed=0)
    patches = patch_embed(RNG.normal(size=(2, 2, 3, 4)), params, cfg)
    seq = attach_special_tokens(patches, np.array([0, 1]), params)
    assert seq.tokens.shape == (2, 8, 8)
    assert np.allclose(seq.tokens.data[0, 0], params["meta_token"].data)
    assert np.allclose(seq.tokens.data[0, 1], params["view_token.aerial"].data)
    assert np.allclose(seq.tokens.data[1, 1], params["view_token.ground"].data)
    with pytest.raises(DomainError, match="view labels"):
        attach_special_tokens(patches, np.array([0]), params)
    with pytest.raises(DomainError, match="unknown view"):
        attach_special_tokens(patches, np.array([0, 2]), params)


def test_vdt_decouple_subtracts_view_from_meta():
    tokens = RNG.normal(size=(2, 5, 3))
    seq = model.TokenSequence(tokens=Tensor(tokens))
    out = vdt_decouple(seq).tokens.data
    assert np.allclose(out[:, 0], tokens[:, 0] - tokens[:, 1], atol=1e-15)
    assert np.allclose(out[:, 1:], tokens[:, 1:], atol=1e-15)


def test_batch_permutation_equivariance():
    cfg = small_cfg(selector=SelectorConfig(k=3, noise_enabled=False))
    params = init_params(cfg, seed=5)
    x = RNG.normal(size=(4, 2, 3, 4))
    v = np.array([0, 1, 1, 0])
    perm = np.array([2, 0, 3, 1])
    a = model_forward(cfg, params, x, v)
    b = model_forward(cfg, params, x[perm], v[perm])
    assert np.allclose(a.id_logits.data[perm], b.id_logits.data, atol=1e-10)
    assert np.allclose(a.meta_feature.data[perm], b.meta_feature.data, atol=1e-10)
    assert np.array_equal(a.selected_slots[perm], b.selected_slots)


def test_single_block_hand_forward_oracle():
    """Recompute a one-block forward with straight-line numpy and match the
    model to 1e-10."""
    cfg = ModelConfig(num_identities=3, num_blocks=1, embed_dim=4,
                      num_attn_heads=1, patch_grid=(1, 2), patch_dim=2)
    params = init_params(cfg, seed=11)
    x = RNG.normal(size=(1, 1, 2, 2))
    v = np.array([1])

    def g(name):
        return params[name].data

    def layernorm(z, gamma, beta):
        mu = z.mean(axis=-1, keepdims=True)
        var = z.var(axis=-1, keepdims=True)
        return (z - mu) / np.sqrt(var + model.LN_EPS) * gamma + beta

    def softmax(z):
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    patches = x.reshape(1, 2, 2) @ g("patch_embed.w") + g("patch_embed.b") + g("pos_embed")
    seq = np.concatenate([g("meta_token")[None, None],
                          g("view_token.ground")[None, None], patches], axis=1)

    normed = layernorm(seq, g("block0.ln1.gamma"), g("block0.ln1.beta"))
    q = normed @ g("block0.attn.wq") + g("block0.attn.bq")
    k = normed @ g("block0.attn.wk") + g("block0.attn.bk")
    vv = normed @ g("block0.attn.wv") + g("block0.attn.bv")
    att = softmax(q @ k.transpose(0, 2, 1) / np.sqrt(4))
    seq = seq + (att @ vv) @ g("block0.attn.wo") + g("block0.attn.bo")

    normed = layernorm(seq, g("block0.ln2.gamma"), g("block0.ln2.beta"))
    h = normed @ g("block0.mlp.w1") + g("block0.mlp.b1")
    from scipy.special import erf
    h = h * 0.5 * (1.0 + erf(h / np.sqrt(2.0)))
    seq = seq + h @ g("block0.mlp.w2") + g("block0.mlp.b2")

    seq[:, 0] = seq[:, 0] - seq[:, 1]
    id_logits = seq[:, 0] @ g("head.id.w") + g("head.id.b")
    view_logits = seq[:, 1] @ g("head.view.w") + g("head.view.b")

    out = model_forward(cfg, params, x, v)
    assert np.allclose(out.meta_feature.data, seq[:, 0], atol=1e-10)
    assert np.allclose(out.id_logits.data, id_logits, atol=1e-10)
    assert np.allclose(out.view_logits.data, view_logits, atol=1e-10)


def test_seed_determines_params_and_selector_drawn_last():
    # the selector has no parameters: a seed gives the same dict either way
    cfg_plain = small_cfg()
    cfg_sel = small_cfg(selector=SelectorConfig(k=2))
    a = init_params(cfg_plain, seed=7)
    b = init_params(cfg_sel, seed=7)
    assert list(a) == list(b)
    for name, p in a.items():
        assert np.array_equal(p.data, b[name].data), name


@pytest.mark.parametrize("position", ["last", "second_to_last"])
def test_full_retention_matches_selector_free(position):
    """K = M with noise off must match the selector-free model exactly."""
    selcfg = SelectorConfig(k=6, num_heads=2, position=position,
                            noise_enabled=False)
    cfg_sel = small_cfg(selector=selcfg)
    cfg_plain = small_cfg()
    params = init_params(cfg_sel, seed=13)
    x = RNG.normal(size=(3, 2, 3, 4))
    v = np.array([0, 1, 0])
    a = model_forward(cfg_sel, params, x, v)
    b = model_forward(cfg_plain, params, x, v)
    assert np.abs(a.id_logits.data - b.id_logits.data).max() < 1e-12
    assert np.abs(a.meta_feature.data - b.meta_feature.data).max() < 1e-12
    assert np.array_equal(a.selected_slots, np.broadcast_to(np.arange(6), (3, 6)))


def test_selector_positions_change_sequence_seen_by_heads():
    x = RNG.normal(size=(2, 2, 3, 4))
    v = np.array([0, 1])
    outs = {}
    for pos in ("last", "second_to_last"):
        cfg = small_cfg(selector=SelectorConfig(k=2, position=pos,
                                                noise_enabled=False))
        params = init_params(cfg, seed=21)
        outs[pos] = model_forward(cfg, params, x, v)
    # both report K selections, but the computations differ: "last" encodes
    # the reduced sequence once, "second_to_last" twice
    assert outs["last"].selected_slots.shape == (2, 2)
    assert outs["second_to_last"].selected_slots.shape == (2, 2)
    assert not np.allclose(outs["last"].id_logits.data,
                           outs["second_to_last"].id_logits.data)


def test_selected_origin_tracks_grid_indices():
    cfg = small_cfg(selector=SelectorConfig(k=3, noise_enabled=False))
    params = init_params(cfg, seed=2)
    x = RNG.normal(size=(2, 2, 3, 4))
    out = model_forward(cfg, params, x, np.array([0, 1]))
    assert np.array_equal(out.selected_origin, out.selected_slots)
    assert (out.selected_origin >= 0).all() and (out.selected_origin < 6).all()


@pytest.mark.parametrize("position", ["last", "second_to_last"])
def test_frozen_selection_reproduces_the_live_forward(position):
    """Feeding a forward's own selection back as `frozen_selection` gives the
    same outputs bit for bit: the gradient checker's smooth surrogate agrees
    with the model at the point it is differenced."""
    cfg = small_cfg(selector=SelectorConfig(k=2, position=position))
    params = init_params(cfg, seed=6)
    for p in params.values():
        p.data = p.data + RNG.normal(scale=0.1, size=p.shape)
    x = RNG.normal(size=(3, 2, 3, 4))
    v = np.array([0, 1, 1])
    live = model_forward(cfg, params, x, v)
    frozen = model_forward(cfg, params, x, v, frozen_selection=live.selected_slots)
    for field in ("id_logits", "view_logits", "meta_feature"):
        assert np.array_equal(getattr(live, field).data, getattr(frozen, field).data), field
    assert np.array_equal(frozen.selected_slots, live.selected_slots)
    # frozen slots, not the scorer's, decide what is kept
    other = np.array([[s for s in range(6) if s not in row][:2] for row in live.selected_slots])
    moved = model_forward(cfg, params, x, v, frozen_selection=other)
    assert np.array_equal(moved.selected_slots, other)
    assert not np.allclose(moved.id_logits.data, live.id_logits.data)


def test_training_noise_is_reproducible_with_seeded_rng():
    cfg = small_cfg(selector=SelectorConfig(k=2, noise_enabled=True))
    params = init_params(cfg, seed=4)
    x = RNG.normal(size=(2, 2, 3, 4))
    v = np.array([0, 1])
    a = model_forward(cfg, params, x, v, rng=np.random.default_rng(0), training=True)
    b = model_forward(cfg, params, x, v, rng=np.random.default_rng(0), training=True)
    assert np.array_equal(a.selected_slots, b.selected_slots)
    assert np.allclose(a.id_logits.data, b.id_logits.data, atol=1e-15)
    # eval mode ignores noise even when enabled
    c = model_forward(cfg, params, x, v, training=False)
    d = model_forward(cfg, params, x, v, training=False)
    assert np.array_equal(c.selected_slots, d.selected_slots)


def test_checkpoint_round_trip_is_exact(tmp_path):
    cfg = small_cfg(selector=SelectorConfig(k=2))
    params = init_params(cfg, seed=8)
    for p in params.values():
        p.data = p.data + RNG.normal(scale=0.01, size=p.shape)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, params, cfg)
    arrays = load_checkpoint(path, cfg)
    assert list(arrays) == list(params)
    for name, arr in arrays.items():
        assert np.array_equal(arr, params[name].data), name
    fresh = init_params(cfg, seed=9)
    restore_params(fresh, arrays)
    x = RNG.normal(size=(2, 2, 3, 4))
    v = np.array([0, 1])
    a = model_forward(cfg, params, x, v)
    b = model_forward(cfg, fresh, x, v)
    assert np.array_equal(a.id_logits.data, b.id_logits.data)


def test_checkpoint_write_that_fails_midway_keeps_the_previous_file(tmp_path):
    class FailingParam:
        shape = (2,)

        @property
        def data(self):
            raise OSError("disk full")

    path = tmp_path / "checkpoint.bin"
    cfg = small_cfg()
    params = init_params(cfg, seed=0)
    save_checkpoint(path, params, cfg)
    before = path.read_bytes()
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, {**params, "late": FailingParam()}, cfg)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.bin"]


def test_checkpoint_rejects_bad_magic_and_mismatch(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a checkpoint")
    with pytest.raises(DomainError, match="not a checkpoint"):
        load_checkpoint(bad)

    cfg = small_cfg()
    params = init_params(cfg, seed=0)
    path = tmp_path / "ok.bin"
    save_checkpoint(path, params, cfg)
    arrays = load_checkpoint(path, cfg)

    # the selector adds no parameter, so the recorded config catches it
    with pytest.raises(DomainError, match="selector.enabled = false, the config "
                                          "has selector.enabled = true"):
        load_checkpoint(path, small_cfg(selector=SelectorConfig(k=2)))

    other = init_params(small_cfg(num_blocks=1), seed=0)
    with pytest.raises(DomainError, match="mismatch"):
        restore_params(other, arrays)

    wrong = init_params(small_cfg(num_identities=4), seed=0)
    with pytest.raises(DimensionError, match="shape"):
        restore_params(wrong, arrays)

    blob = path.read_bytes()
    header_end = blob.index(b"\nend\n")
    assert b"\npatch_embed.w 4 8\n" in blob
    corrupt = {
        "no_end.bin": (blob[:header_end + 1], "no 'end' line"),
        "bad_dim.bin": (blob.replace(b"\npatch_embed.w 4 8\n", b"\npatch_embed.w 4 x\n"),
                        "bad manifest line"),
        "truncated.bin": (blob[:-8], "payload holds"),
        # the version 1 layout: no config line after the magic
        "v1.bin": (b"dtst-checkpoint v1\n" + blob.split(b"\n", 2)[2],
                   "version 1 checkpoint, which records no model config; retrain"),
        "bad_config.bin": (blob.replace(b"\nconfig ", b"\nconfig x "), "bad config line"),
        "trailing.bin": (blob + b"\0", "payload holds"),
    }
    for name, (data, message) in corrupt.items():
        (tmp_path / name).write_bytes(data)
        with pytest.raises(DomainError, match=message) as err:
            load_checkpoint(tmp_path / name)
        assert name in str(err.value)


@pytest.mark.parametrize("position", ["last", "second_to_last"])
def test_noise_free_selection_keeps_the_largest_norm_patch_tokens(position):
    """The kept slots are the hard top-K of the squared norms of the patch
    tokens entering the selector's block, computed here by running the
    blocks in front of it one by one."""
    cfg = small_cfg(num_blocks=3, selector=SelectorConfig(k=2, position=position,
                                                          noise_enabled=False))
    params = init_params(cfg, seed=11)
    for p in params.values():
        p.data = p.data + RNG.normal(scale=0.2, size=p.shape)
    x = RNG.normal(size=(5, 2, 3, 4))
    v = np.array([0, 1, 1, 0, 1])
    seq = attach_special_tokens(patch_embed(x, params, cfg), v, params)
    for i in range(cfg.selector_block):
        seq = vdt_decouple(encoder_block(seq, params, i, cfg))
    patches = seq.tokens.data[:, 2:]
    want = hard_topk((patches * patches).sum(axis=-1), cfg.selector.k)
    for training in (False, True):
        out = model_forward(cfg, params, x, v, rng=np.random.default_rng(0),
                            training=training)
        assert np.array_equal(out.selected_slots, want), training


def _step_tape(cfg, params, x, y, v):
    with Tape() as tape:
        out = model_forward(cfg, params, x, v, rng=np.random.default_rng(0), training=True)
        total_loss(cross_entropy_loss(out.id_logits, y), cross_entropy_loss(out.view_logits, v),
                   orthogonal_loss(out.meta_feature, out.view_feature), LossWeights())
    return tape


def test_selection_adds_one_tape_entry_to_a_training_step(monkeypatch):
    gathers = []
    original = T.gather_tokens
    monkeypatch.setattr(T, "gather_tokens",
                        lambda *args: gathers.append(1) or original(*args))
    x = RNG.normal(size=(4, 2, 3, 4))
    y = np.array([0, 1, 2, 3])
    v = np.array([0, 1, 0, 1])
    plain = small_cfg()
    params = init_params(plain, seed=5)
    base = len(_step_tape(plain, params, x, y, v))
    assert not gathers
    selected = len(_step_tape(small_cfg(selector=SelectorConfig(k=2)), params, x, y, v))
    assert selected == base + 1 and len(gathers) == 1
