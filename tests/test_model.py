"""Backbone tests: shapes, embedding oracles, decoupling, selector plumbing,
checkpoint round-trips."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from dtst import model
from dtst import selector as sel
from dtst import tensor as T
from dtst.config import load_config
from dtst.data import batch_arrays, generate_dataset, pk_batch
from dtst.errors import ConfigError, ContractError, DimensionError, DomainError, NumericError
from dtst.losses import cross_entropy_loss, orthogonal_loss, total_loss
from dtst.model import (VIEW_AERIAL, VIEW_GROUND, ModelConfig, attach_special_tokens,
                        check_params, encoder_block, init_params, load_checkpoint, model_forward,
                        patch_embed, restore_params, save_checkpoint, vdt_decouple)
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
    for selector in ("x", 2, {"k": 2}):
        with pytest.raises(ConfigError, match="a SelectorConfig or None"):
            small_cfg(selector=selector)
    small_cfg(num_blocks=2, selector=SelectorConfig(k=2, position="second_to_last"))
    with pytest.raises(ConfigError, match="needs model.num_blocks >= 2, got 1"):
        small_cfg(num_blocks=1, selector=SelectorConfig(k=2, position="second_to_last"))


@pytest.mark.parametrize("field, value", [
    ("num_blocks", 2.5), ("embed_dim", 16.0), ("num_identities", 0), ("num_attn_heads", None),
    ("patch_dim", "4")])
def test_config_extents_must_be_positive_integers(field, value):
    with pytest.raises(ConfigError, match=f"ModelConfig extents must be positive integers, "
                                          f"got {field} = {value!r}"):
        small_cfg(**{field: value})


@pytest.mark.parametrize("grid", [(4,), (4, 4, 1), (2.0, 3), (2, 0), 6])
def test_config_patch_grid_must_be_a_pair_of_positive_integers(grid):
    with pytest.raises(ConfigError, match="ModelConfig.patch_grid must be a pair of integers"):
        small_cfg(patch_grid=grid)


def test_config_takes_numpy_integer_extents_as_python_ints():
    cfg = small_cfg(embed_dim=np.int64(8), patch_grid=[np.int32(2), 3])
    assert cfg == small_cfg() and type(cfg.embed_dim) is int and cfg.patch_grid == (2, 3)


@pytest.mark.parametrize("views, frozen, error, match", [
    ([0.0, 1.0], None, DomainError, "view labels must be integers"),
    ([True, False], None, DomainError, "view labels must be integers"),
    ([0, 1], [[0.0, 1.0], [2.0, 3.0]], DomainError, "indices must be integers"),
    ([0, 1], [0, 1], DimensionError, r"must be \[2, K >= 1\], got shape \(2,\)"),
    ([0, 1], [[0, 1], [2, 3], [4, 5]], DimensionError, r"got shape \(3, 2\)"),
    ([0, 1], np.zeros((2, 0), dtype=int), DimensionError, r"got shape \(2, 0\)"),
], ids=["float_views", "bool_views", "float_selection", "flat_selection",
        "selection_rows", "empty_selection"])
def test_model_forward_rejects_malformed_labels_and_selections(views, frozen, error, match):
    cfg = small_cfg(selector=SelectorConfig(k=2, noise_enabled=False))
    params = init_params(cfg, seed=0)
    with pytest.raises(error, match=match):
        model_forward(cfg, params, RNG.normal(size=(2, 2, 3, 4)), np.array(views),
                      frozen_selection=frozen)


@pytest.mark.parametrize("frozen", [[[0], [1]], [[0], [5]]], ids=["in_range", "out_of_range"])
def test_model_forward_rejects_a_selection_without_a_selector(frozen):
    cfg = small_cfg(patch_grid=(2, 2))
    params = init_params(cfg, seed=0)
    with pytest.raises(ContractError, match="needs a model with a selector"):
        model_forward(cfg, params, RNG.normal(size=(2, 2, 2, 4)), np.array([0, 1]),
                      frozen_selection=frozen)


_MISMATCH = "^params do not match the model config's layout: "


def test_model_forward_names_every_parameter_it_lacks():
    cfg = small_cfg(patch_grid=(2, 2))
    x, views = RNG.normal(size=(2, 2, 2, 4)), np.array([0, 1])
    names = [name for name, _, _ in model.param_layout(cfg)]
    # the same error, in the same words, as `check_params`
    for call in (model_forward, check_params):
        args = (x, views) if call is model_forward else ()
        with pytest.raises(DimensionError) as err:
            call(cfg, {}, *args)
        assert str(err.value) == ("params do not match the model config's layout: missing "
                                  + ", ".join(f"'{name}'" for name in names))
        params = init_params(cfg, seed=0)
        del params["block1.mlp.w2"], params["head.view.b"]
        with pytest.raises(DimensionError, match=_MISMATCH + "missing 'block1.mlp.w2', "
                                                             "'head.view.b'$"):
            call(cfg, params, *args)
    with pytest.raises(ContractError, match="params must be a dict"):
        model_forward(cfg, list(params.values()), x, views)


def _reshaped(name, shape):
    def mismatch(params):
        params[name] = Tensor(np.zeros(shape), requires_grad=True)
        return params
    return mismatch


def _extra(params):
    params["block0.attn.wq"] = Tensor(np.zeros((8, 8)), requires_grad=True)
    return params


# small_cfg(patch_grid=(2, 2)): d = 8, M = 4, 5 identities
@pytest.mark.parametrize("mismatch, match", [
    (_reshaped("pos_embed", (5, 8)), r"'pos_embed' has shape \(5, 8\), not \(4, 8\)$"),
    (_reshaped("meta_token", (9,)), r"'meta_token' has shape \(9,\), not \(8,\)$"),
    (_reshaped("view_tokens", (3, 8)), r"'view_tokens' has shape \(3, 8\), not \(2, 8\)$"),
    (_reshaped("head.id.w", (8, 6)), r"'head.id.w' has shape \(8, 6\), not \(8, 5\)$"),
    (_extra, r"unexpected 'block0.attn.wq'$"),
], ids=["pos_embed", "meta_token", "view_tokens", "head.id.w", "extra_name"])
def test_model_forward_names_a_parameter_of_another_shape_or_an_extra_one(mismatch, match):
    # each used to end in a raw ValueError, a DimensionError from `linear`
    # that named no parameter, or no error at all
    cfg = small_cfg(patch_grid=(2, 2))
    params = mismatch(init_params(cfg, seed=0))
    for call in (model_forward, check_params):
        args = (RNG.normal(size=(2, 2, 2, 4)), np.array([0, 1])) if call is model_forward else ()
        with pytest.raises(DimensionError, match=_MISMATCH + match):
            call(cfg, params, *args)


def test_the_layout_message_names_every_missing_and_unexpected_name_and_the_first_shape():
    cfg = small_cfg(patch_grid=(2, 2))
    params = init_params(cfg, seed=0)
    del params["meta_token"], params["head.id.b"]
    params.update({name: Tensor(np.zeros(2)) for name in ("selector.wq", "selector.wk")})
    params["pos_embed"] = Tensor(np.zeros((5, 8)))
    params["head.view.w"] = Tensor(np.zeros((8, 3)))
    with pytest.raises(DimensionError, match=_MISMATCH + "missing 'meta_token', 'head.id.b'; "
                       "unexpected 'selector.wq', 'selector.wk'; "
                       r"'pos_embed' has shape \(5, 8\), not \(4, 8\)$"):
        check_params(cfg, params)


@pytest.mark.parametrize("num_blocks", [1, 2, 5])
def test_the_selector_block_counts_its_position_from_the_end(num_blocks):
    # one table, `selector.POSITIONS`, sets both the block and the range check
    for position, from_end in sel.POSITIONS.items():
        selector = SelectorConfig(k=1, position=position)
        if num_blocks < from_end:
            with pytest.raises(ConfigError, match=f"needs model.num_blocks >= {from_end}"):
                small_cfg(num_blocks=num_blocks, selector=selector)
        else:
            cfg = small_cfg(num_blocks=num_blocks, selector=selector)
            assert cfg.selector_block == num_blocks - from_end
    assert small_cfg(num_blocks=num_blocks).selector_block is None


def test_init_params_draws_along_param_layout():
    for cfg in (small_cfg(), small_cfg(num_blocks=3, selector=SelectorConfig(k=1))):
        made = init_params(cfg, seed=0)
        layout = model.param_layout(cfg)
        assert [(n, p.shape) for n, p in made.items()] == [(n, s) for n, s, _ in layout]
        for name, _, init in layout:
            data = made[name].data
            if isinstance(init, float):
                assert np.all(data == init), name
            else:
                assert np.all(np.abs(data) <= 1 / np.sqrt(init)), name
                assert np.unique(data).size == data.size, name


def test_init_params_of_the_benchmark_config_are_pinned():
    # guards the draw order: name, shape and bytes of every parameter
    cfg = load_config(Path(__file__).parent.parent / "configs" / "benchmark.cfg")
    digest = hashlib.sha256()
    for name, p in init_params(cfg.model_config(), 0).items():
        digest.update(name.encode() + str(p.shape).encode() + p.data.astype("<f8").tobytes())
    assert digest.hexdigest() == \
        "5b33cca4b192250d155eab7767191ddb9ad6da0e86a71fb36ddd5f32ac5ee286"


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
    assert np.allclose(seq.tokens.data[0, 1], params["view_tokens"].data[VIEW_AERIAL])
    assert np.allclose(seq.tokens.data[1, 1], params["view_tokens"].data[VIEW_GROUND])
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
        return (z - mu) / np.sqrt(var + T.LAYER_NORM_EPS) * gamma + beta

    def softmax(z):
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    patches = x.reshape(1, 2, 2) @ g("patch_embed.w") + g("patch_embed.b") + g("pos_embed")
    seq = np.concatenate([g("meta_token")[None, None],
                          g("view_tokens")[VIEW_GROUND][None, None], patches], axis=1)

    normed = layernorm(seq, g("block0.ln1.gamma"), g("block0.ln1.beta"))
    # Q, K and V are the three [d, d] column blocks of w_qkv, in that order
    w_qkv, b_qkv = g("block0.attn.w_qkv"), g("block0.attn.b_qkv")
    q = normed @ w_qkv[:, 0:4] + b_qkv[0:4]
    k = normed @ w_qkv[:, 4:8] + b_qkv[4:8]
    vv = normed @ w_qkv[:, 8:12] + b_qkv[8:12]
    att = softmax(q @ k.transpose(0, 2, 1) / np.sqrt(4))
    seq = seq + (att @ vv) @ g("block0.attn.w_o") + g("block0.attn.b_o")

    normed = layernorm(seq, g("block0.ln2.gamma"), g("block0.ln2.beta"))
    h = normed @ g("block0.mlp.w1") + g("block0.mlp.b1")
    h = 0.5 * h * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (h + 0.044715 * h**3)))
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


@pytest.mark.parametrize("seed", [-1, 1.5, "0", None])
def test_a_parameter_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(DomainError, match="parameter seed must be an integer >= 0"):
        init_params(small_cfg(), seed)


def test_a_numpy_integer_parameter_seed_draws_as_its_python_int():
    want = init_params(small_cfg(), 7)
    for name, p in init_params(small_cfg(), np.int64(7)).items():
        assert np.array_equal(p.data, want[name].data), name


@pytest.mark.parametrize("position", ["last", "second_to_last"])
def test_full_retention_matches_selector_free(position):
    """K = M with noise off must match the selector-free model exactly."""
    selcfg = SelectorConfig(k=6, position=position, noise_enabled=False)
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


def test_restore_params_writes_in_place_after_checking_every_shape():
    cfg = small_cfg()
    params = init_params(cfg, seed=0)
    before = {name: p.data for name, p in params.items()}
    arrays = {name: RNG.normal(size=p.shape) for name, p in params.items()}
    restore_params(params, arrays)
    for name, p in params.items():
        assert p.data is before[name], name
        assert np.array_equal(p.data, arrays[name]), name
        assert not np.shares_memory(p.data, arrays[name]), name
    last = list(params)[-1]
    shifted = {name: a + 1.0 for name, a in arrays.items()}
    with pytest.raises(DimensionError, match=f"'{last}'"):
        restore_params(params, {**shifted, last: np.zeros(3)})
    for name, p in params.items():
        assert np.array_equal(p.data, arrays[name]), name


def test_checkpoint_write_that_fails_midway_keeps_the_previous_file(tmp_path):
    class FailingArray(np.ndarray):
        # the right shape, so `check_params` passes; the payload write fails
        def astype(self, *args, **kwargs):
            raise OSError("disk full")

    path = tmp_path / "checkpoint.bin"
    cfg = small_cfg()
    params = init_params(cfg, seed=0)
    save_checkpoint(path, params, cfg)
    before = path.read_bytes()
    late = Tensor(np.zeros(2))
    late.data = late.data.view(FailingArray)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, {**params, "head.view.b": late}, cfg)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.bin"]


def test_a_save_of_another_configs_params_is_refused_and_keeps_the_previous_file(tmp_path):
    # the file's echo would say 5 identities and its manifest hold a 6-way head
    path = tmp_path / "checkpoint.bin"
    cfg = small_cfg()
    save_checkpoint(path, init_params(cfg, seed=0), cfg)
    before = path.read_bytes()
    with pytest.raises(DimensionError, match=_MISMATCH + r"'head.id.w' has shape \(8, 6\), "
                                                         r"not \(8, 5\)"):
        save_checkpoint(path, init_params(small_cfg(num_identities=6), seed=0), cfg)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.bin"]


def test_a_save_writes_the_layout_order_whatever_the_dict_order(tmp_path):
    cfg = small_cfg()
    params = init_params(cfg, seed=0)
    save_checkpoint(tmp_path / "ordered.bin", params, cfg)
    save_checkpoint(tmp_path / "reversed.bin", dict(reversed(params.items())), cfg)
    assert (tmp_path / "ordered.bin").read_bytes() == (tmp_path / "reversed.bin").read_bytes()


def test_checkpoint_write_leaves_a_temp_path_it_could_not_open(tmp_path, monkeypatch):
    def permission_denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    tmp = tmp_path / "checkpoint.bin.tmp"
    tmp.write_text("another writer's file\n")
    cfg = small_cfg()
    params = init_params(cfg, seed=0)
    monkeypatch.setattr(model, "open", permission_denied, raising=False)
    with pytest.raises(PermissionError):
        save_checkpoint(tmp_path / "checkpoint.bin", params, cfg)
    assert tmp.read_text() == "another writer's file\n"


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
    with pytest.raises(DimensionError, match="^the checkpoint arrays do not match the params: "
                                             "unexpected 'block1.ln1.gamma', "):
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


def test_restore_names_every_array_the_params_need():
    # a missing name used to be a DomainError here and a DimensionError in
    # `check_params`
    cfg = small_cfg()
    params = init_params(cfg, seed=0)
    arrays = {name: p.data + 1.0 for name, p in params.items()}
    del arrays["meta_token"], arrays["head.id.b"]
    with pytest.raises(DimensionError, match="^the checkpoint arrays do not match the params: "
                                             "missing 'meta_token', 'head.id.b'$"):
        restore_params(params, arrays)
    assert not any(np.array_equal(params[name].data, a) for name, a in arrays.items())


@pytest.mark.parametrize("old, new, match", [
    (b"\nmeta_token 8\n", b"\nmeta_vector 8\n", "missing 'meta_token'; unexpected 'meta_vector'"),
    (b"\npos_embed 6 8\n", b"\npos_embed 8 6\n", r"'pos_embed' has shape \(8, 6\), not \(6, 8\)"),
    (b"\nhead.id.w 8 5\n", b"\nhead.id.w 8 4\nhead.extra 8\n",
     r"unexpected 'head.extra'; 'head.id.w' has shape \(8, 4\), not \(8, 5\)"),
], ids=["renamed", "reshaped", "extra"])
def test_load_with_a_config_holds_the_manifest_to_its_layout(tmp_path, old, new, match):
    # each file used to load, with an echo that matches the config, and was
    # refused only by `restore_params`
    cfg = small_cfg()
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, init_params(cfg, seed=0), cfg)
    blob = path.read_bytes()
    assert old in blob
    path.write_bytes(blob.replace(old, new))  # the echo and the byte count stay right
    assert list(load_checkpoint(path))
    with pytest.raises(DimensionError, match=f"^{path}: the manifest does not match the "
                                             f"model config's layout: {match}$"):
        load_checkpoint(path, cfg)


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
                   orthogonal_loss(out.meta_feature, out.view_feature))
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


@pytest.mark.parametrize("selector", [None, SelectorConfig(k=2, noise_enabled=False),
                                      SelectorConfig(k=3, position="second_to_last",
                                                     noise_enabled=False)],
                         ids=["no_selector", "last", "second_to_last"])
def test_the_two_row_last_block_gives_the_embeddings_of_a_whole_one(selector, monkeypatch):
    # the last block outputs only the meta and view rows; a forward whose
    # last block encodes every row gives the same features bit for bit
    cfg = small_cfg(num_blocks=3, selector=selector)
    params = init_params(cfg, seed=4)
    x = RNG.normal(size=(5, 2, 3, 4))
    v = np.array([0, 1, 1, 0, 1])
    runs, block = [], T.encoder_block
    for whole in (False, True):
        widths = []

        def recording(*args, out_rows=None):
            out = block(*args, out_rows=None if whole else out_rows)
            widths.append(out.shape[1])
            return out
        monkeypatch.setattr(T, "encoder_block", recording)
        untracked = model_forward(cfg, params, x, v)
        with Tape():
            tracked = model_forward(cfg, params, x, v, training=True)
        runs.append([out.meta_feature.data for out in (untracked, tracked)]
                    + [out.view_feature.data for out in (untracked, tracked)])
        kept = cfg.num_patches + 2 if selector is None else selector.k + 2
        assert widths[2::3] == [kept if whole else 2] * 2
    for ours, theirs in zip(*runs):
        assert ours.view(np.int64).tolist() == theirs.view(np.int64).tolist()


def test_a_benchmark_step_computes_only_the_rows_something_reads(monkeypatch):
    # configs/benchmark.cfg: 4 blocks, 2 heads, 4x4 patches, K = 2 in front
    # of block 3. Backward visits the blocks last first: block 3 keeps
    # probabilities of its 2 output rows over its 2 + K tokens, and block 2,
    # whose output the selector cuts to 2 + K rows, runs its MLP, LN2 and
    # queries on those rows only; blocks 1 and 0 on all 2 + M.
    cfg = load_config(Path(__file__).parent.parent / "configs" / "benchmark.cfg")
    mcfg = cfg.model_config()
    data = generate_dataset(cfg.gen_config("train"))
    x, y, v = batch_arrays(pk_batch(data, cfg["train.batch_p"], cfg["train.batch_k"],
                                    np.random.default_rng(0)))
    b, d, k, m = len(x), mcfg.embed_dim, mcfg.selector.k, mcfg.num_patches
    assert mcfg.selector_block == 3 == mcfg.num_blocks - 1
    seen = []
    attention_bwd, mlp_bwd = T._attention_bwd, T._mlp_bwd

    def attention_recording(g, saved, rows=None):
        seen.append(("attention", g.shape, saved[4].shape))
        return attention_bwd(g, saved, rows)

    def mlp_recording(g, saved):
        seen.append(("mlp", g.shape))
        return mlp_bwd(g, saved)
    monkeypatch.setattr(T, "_attention_bwd", attention_recording)
    monkeypatch.setattr(T, "_mlp_bwd", mlp_recording)
    params = init_params(mcfg, seed=0)
    tape = _step_tape(mcfg, params, x, y, v)
    T.backward(tape.entries[-1][0], tape)
    heads = mcfg.num_attn_heads
    whole = [("mlp", (b, 2 + m, d)), ("attention", (b, 2 + m, d), (b, heads, 2 + m, 2 + m))]
    assert seen == [("mlp", (b, 2, d)), ("attention", (b, 2, d), (b, heads, 2, 2 + k)),
                    ("mlp", (b, 2 + k, d)),
                    ("attention", (b, 2 + k, d), (b, heads, 2 + m, 2 + m))] + whole + whole
