"""View-decoupled transformer backbone with a pluggable token selector.

Sequence layout: slot 0 is the meta (global) token, slot 1 the view token,
slots 2.. hold patch tokens. Each block is a pre-norm encoder followed by the
decoupling subtraction meta <- meta - view. The retrieval embedding is the
final meta slot. The selector, when present, runs in front of one block
(`ModelConfig.selector_block`) and keeps the two special tokens and the K
patch tokens of largest norm (Gumbel-perturbed when training with noise
on); that block and every later one encode the reduced sequence. Patch slot
i is grid cell i up to the selection, so the kept slot indices are also the
kept grid indices. The heads read only the meta and view slots, so the last
block outputs those two rows alone (`tensor.encoder_block`'s `out_rows`).
Each block keeps the parameters of a plain pre-norm block (LayerNorm scales
and shifts, a [d, 3d] Q/K/V weight, the MLP's two weights). `param_layout`
lists every parameter's name, shape and initial value once: `init_params`
draws along it, and `_compare_layout` holds params and checkpoints to it.
`tensor.encoder_block` folds the LayerNorms' scales and shifts, the score
scale and the GELU's halving into the weights it multiplies by, each call.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from . import selector as sel
from .errors import (ConfigError, ContractError, DimensionError, DomainError, NumericError,
                     check_count, check_grid)
from .selector import SelectorConfig
from .tensor import Tensor

VIEW_AERIAL = 0
VIEW_GROUND = 1
VIEW_NAMES = {VIEW_AERIAL: "aerial", VIEW_GROUND: "ground"}

MLP_RATIO = 4


@dataclass
class ModelConfig:
    num_identities: int
    num_blocks: int = 4
    embed_dim: int = 16
    num_attn_heads: int = 2
    patch_grid: tuple = (4, 4)
    patch_dim: int = 8
    selector: SelectorConfig = None

    def __post_init__(self):
        for name in ("num_identities", "num_blocks", "embed_dim", "num_attn_heads", "patch_dim"):
            value = getattr(self, name)
            setattr(self, name, check_count(value, 1, ConfigError, f"ModelConfig extents must be "
                                            f"positive integers, got {name} = {value!r}"))
        self.patch_grid = check_grid(self.patch_grid, ConfigError, f"ModelConfig.patch_grid "
                                     f"must be a pair of integers >= 1, got {self.patch_grid!r}")
        if self.embed_dim % self.num_attn_heads != 0:
            raise ConfigError(
                f"num_attn_heads {self.num_attn_heads} must divide embed_dim {self.embed_dim}")
        if self.selector is not None:
            if not isinstance(self.selector, SelectorConfig):
                raise ConfigError(f"ModelConfig.selector must be a SelectorConfig or None, "
                                  f"got {self.selector!r}")
            m = self.num_patches
            if self.selector.k > m:
                raise ConfigError(f"SelectorConfig.K={self.selector.k} exceeds M={m}")
            needed = sel.POSITIONS[self.selector.position]
            if self.num_blocks < needed:
                raise ConfigError(f"selector.position = {self.selector.position} needs "
                                  f"model.num_blocks >= {needed}, got {self.num_blocks}")

    @property
    def num_patches(self):
        return self.patch_grid[0] * self.patch_grid[1]

    @property
    def selector_block(self):
        """Index of the block the selector runs in front of, or None without
        a selector (`selector.POSITIONS` counts it from the end)."""
        if self.selector is None:
            return None
        return self.num_blocks - sel.POSITIONS[self.selector.position]


@dataclass
class TokenSequence:
    tokens: Tensor            # [B, T, d]


@dataclass
class ForwardResult:
    meta_feature: Tensor      # [B, d]
    view_feature: Tensor      # [B, d]
    id_logits: Tensor         # [B, num_identities]
    view_logits: Tensor       # [B, 2]
    selected_origin: np.ndarray = None  # [B, K] grid indices kept by the selector
    selected_slots: np.ndarray = None   # the same array, read as patch slots


def _block_layout(d: int) -> list:
    """One encoder block's part of `param_layout`, each name after its
    "block<i>." prefix, in the order `tensor.encoder_block` takes them."""
    h = MLP_RATIO * d
    return [("ln1.gamma", (d,), 1.0), ("ln1.beta", (d,), 0.0),
            ("attn.w_qkv", (d, 3 * d), d), ("attn.b_qkv", (3 * d,), 0.0),
            ("attn.w_o", (d, d), d), ("attn.b_o", (d,), 0.0),
            ("ln2.gamma", (d,), 1.0), ("ln2.beta", (d,), 0.0),
            ("mlp.w1", (d, h), d), ("mlp.b1", (h,), 0.0),
            ("mlp.w2", (h, d), h), ("mlp.b2", (d,), 0.0)]


@functools.lru_cache  # by extents, as `model_forward` checks its params on every call
def _layout(patch_dim, d, num_patches, num_blocks, num_identities) -> tuple:
    views = len(VIEW_NAMES)
    layout = [("patch_embed.w", (patch_dim, d), patch_dim), ("patch_embed.b", (d,), 0.0),
              ("pos_embed", (num_patches, d), d), ("meta_token", (d,), d),
              ("view_tokens", (views, d), d)]  # row = view id
    for i in range(num_blocks):
        layout += [(f"block{i}.{name}", shape, init) for name, shape, init in _block_layout(d)]
    layout += [("head.id.w", (d, num_identities), d), ("head.id.b", (num_identities,), 0.0),
               ("head.view.w", (d, views), d), ("head.view.b", (views,), 0.0)]
    return tuple(layout)


def param_layout(cfg: ModelConfig) -> tuple:
    """Every parameter of the model as (name, shape, initial value), in the
    order `init_params` draws them and a checkpoint stores them. An initial
    value is a float, the constant every entry starts at, or an int, the
    fan-in of a uniform draw in +-1/sqrt(fan-in)."""
    return _layout(cfg.patch_dim, cfg.embed_dim, cfg.num_patches, cfg.num_blocks,
                   cfg.num_identities)


def init_params(cfg: ModelConfig, seed: int) -> dict:
    """Fresh parameter dict along `param_layout(cfg)`, fully determined by
    the seed (an integer >= 0)."""
    seed = check_count(seed, 0, DomainError, f"parameter seed must be an integer >= 0, "
                       f"got {seed!r}")
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape, init in param_layout(cfg):
        if isinstance(init, float):
            data = np.full(shape, init)
        else:
            bound = 1.0 / np.sqrt(init)
            if name.endswith(".attn.w_qkv"):  # Q, K, V: three [d, d] draws laid side by side
                draw = rng.uniform(-bound, bound, size=(3, shape[0], shape[1] // 3))
                data = np.concatenate(draw, axis=1)
            else:
                data = rng.uniform(-bound, bound, size=shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


def _compare_layout(layout, shapes: dict, mismatch: str) -> None:
    """The one judge of a parameter set: DimensionError unless `shapes`
    ({name: shape}) holds exactly the (name, shape) pairs of `layout`. The
    message, after `mismatch`, names every missing name, every unexpected
    one and the first parameter of another shape."""
    wanted = dict(layout)
    missing = [name for name in wanted if name not in shapes]
    extra = [name for name in shapes if name not in wanted]
    faults = [f"{word} {', '.join(map(repr, names))}"
              for word, names in (("missing", missing), ("unexpected", extra)) if names]
    faults += [f"'{name}' has shape {shapes[name]}, not {shape}"
               for name, shape in layout if shapes.get(name, shape) != shape][:1]
    if faults:
        raise DimensionError(f"{mismatch}: {'; '.join(faults)}")


def check_params(cfg: ModelConfig, params: dict) -> None:
    """DimensionError unless `params` holds exactly the parameters of
    `param_layout(cfg)` in their shapes, ContractError unless it is a dict
    of Tensors. `model_forward` and `save_checkpoint` run it first."""
    if not isinstance(params, dict) or not all(isinstance(p, Tensor) for p in params.values()):
        raise ContractError("params must be a dict of name -> Tensor")
    _compare_layout([(name, shape) for name, shape, _ in param_layout(cfg)],
                    {name: p.shape for name, p in params.items()},
                    "params do not match the model config's layout")


def patch_embed(x, params: dict, cfg: ModelConfig) -> Tensor:
    """Project the feature grid to embeddings and add positional embeddings."""
    x = np.asarray(x, dtype=np.float64)
    rows, cols = cfg.patch_grid
    if x.shape[1:] != (rows, cols, cfg.patch_dim):
        raise DimensionError(
            f"grid shape {x.shape[1:]} does not match configured {(rows, cols, cfg.patch_dim)}")
    if not np.isfinite(x).all():
        raise NumericError(f"input grid holds {np.count_nonzero(~np.isfinite(x))} "
                           f"non-finite values")
    b = x.shape[0]
    m = rows * cols
    flat = Tensor(x.reshape(b, m, cfg.patch_dim))
    out = T.linear(flat, params["patch_embed.w"], params["patch_embed.b"])
    return out + params["pos_embed"]


def attach_special_tokens(patches: Tensor, view_labels, params: dict) -> TokenSequence:
    """Prepend the meta token (slot 0) and the per-item view token (slot 1)."""
    view_labels = np.asarray(view_labels)
    b, m, d = patches.shape
    if view_labels.shape != (b,):
        raise DomainError(f"expected {b} view labels, got shape {view_labels.shape}")
    if view_labels.dtype.kind not in "iu":
        raise DomainError(f"view labels must be integers, got dtype {view_labels.dtype}")
    bad = set(view_labels.tolist()) - set(VIEW_NAMES)
    if bad:
        raise DomainError(f"unknown view labels {sorted(bad)}")
    meta, views = params["meta_token"], params["view_tokens"]
    tokens = np.empty((b, m + 2, d))
    tokens[:, 0] = meta.data
    tokens[:, 1] = views.data[view_labels]
    tokens[:, 2:] = patches.data

    def bwd(g):
        gview = np.stack([g[view_labels == v, 1].sum(axis=0) for v in VIEW_NAMES])
        return g[:, 0].sum(axis=0), gview, g[:, 2:]

    return TokenSequence(tokens=T.make(tokens, (meta, views, patches), bwd))


def encoder_block(seq: TokenSequence, params: dict, index: int,
                  cfg: ModelConfig) -> TokenSequence:
    """Pre-norm multi-head self-attention and MLP, both with residuals, as
    one fused op (`tensor.encoder_block`). The last block outputs only the
    meta and view slots, the two rows the heads read."""
    pre = f"block{index}."
    weights = (params[pre + name] for name, _, _ in _block_layout(cfg.embed_dim))
    out_rows = 2 if index == cfg.num_blocks - 1 else None
    return replace(seq, tokens=T.encoder_block(seq.tokens, *weights, cfg.num_attn_heads,
                                                out_rows=out_rows))


def vdt_decouple(seq: TokenSequence) -> TokenSequence:
    """meta <- meta - view; view and patch slots pass through unchanged."""
    return replace(seq, tokens=T.sub_slot(seq.tokens, 0, 1))


def _apply_selector(seq: TokenSequence, cfg: SelectorConfig, rng, training: bool,
                    frozen=None):
    """Keep the K patch tokens of largest logit, Gumbel-perturbed when
    training with noise on: a plain index choice, with no gradient through
    it. Returns the reduced sequence and the ForwardResult selection fields.

    `frozen`, when given, is the patch-slot indices [B, K] to keep instead,
    which makes the whole forward a smooth function of the parameters (used
    by finite-difference checks).
    """
    indices = frozen
    if frozen is None:
        logits = sel.score_tokens(seq.tokens.data[:, 2:])
        indices = sel.perturbed_topk(logits, cfg.k, cfg.noise_enabled and training, rng)
    indices = np.asarray(indices)
    seq = replace(seq, tokens=sel.select_tokens(seq.tokens, indices))
    return seq, {"selected_origin": indices, "selected_slots": indices}


def model_forward(cfg: ModelConfig, params: dict, x, view_labels,
                  rng=None, training: bool = False,
                  frozen_selection=None) -> ForwardResult:
    """Full forward pass: embed, N encoder+decouple blocks with the selector
    in front of `cfg.selector_block`, classifier heads."""
    if frozen_selection is not None and cfg.selector is None:
        raise ContractError("frozen_selection needs a model with a selector")
    check_params(cfg, params)
    patches = patch_embed(x, params, cfg)
    seq = attach_special_tokens(patches, view_labels, params)
    selection = {}
    for i in range(cfg.num_blocks):
        if i == cfg.selector_block:
            seq, selection = _apply_selector(seq, cfg.selector, rng, training,
                                             frozen=frozen_selection)
        seq = encoder_block(seq, params, i, cfg)
        seq = vdt_decouple(seq)
    b, _, d = seq.tokens.shape
    meta = T.reshape(T.narrow(seq.tokens, 1, 0, 1), (b, d))
    view = T.reshape(T.narrow(seq.tokens, 1, 1, 1), (b, d))
    id_logits = T.linear(meta, params["head.id.w"], params["head.id.b"])
    view_logits = T.linear(view, params["head.view.w"], params["head.view.b"])
    return ForwardResult(meta_feature=meta, view_feature=view, id_logits=id_logits,
                         view_logits=view_logits, **selection)


# ---------------------------------------------------------------------------
# checkpoint format: the magic line, a "config key=value ..." line echoing
# `config_echo`, a text manifest (one "name dim dim ..." line per parameter,
# in `param_layout` order), an "end" line, then the flat float64
# little-endian data. Version 1 files had no config line and are rejected.

_MAGIC = b"dtst-checkpoint v2\n"


def config_echo(cfg: ModelConfig) -> dict:
    """The config-file keys that shape an eval forward, with their values as
    text: `model.*`, `data.num_ids` and the selector's `enabled`, `k` and
    `position`. The selector's noise is off at eval, so it changes no kept
    token there and is left out."""
    echo = {"model.num_blocks": cfg.num_blocks, "model.embed_dim": cfg.embed_dim,
            "model.num_heads": cfg.num_attn_heads, "model.patch_rows": cfg.patch_grid[0],
            "model.patch_cols": cfg.patch_grid[1], "model.patch_dim": cfg.patch_dim,
            "data.num_ids": cfg.num_identities,
            "selector.enabled": "false" if cfg.selector is None else "true"}
    if cfg.selector is not None:
        echo.update({"selector.k": cfg.selector.k, "selector.position": cfg.selector.position})
    return {key: str(value) for key, value in echo.items()}


def remove_artifact(path) -> None:
    """Unlink the file at `path`, if there is one; a directory there stays."""
    with contextlib.suppress(FileNotFoundError, IsADirectoryError):
        os.unlink(path)


def write_artifact(path, chunks) -> None:
    """The one writer of a command's files: stream `chunks` (str, written as
    UTF-8, or bytes) to `<path>.tmp`, unlink any file at `path` and rename
    the new file to it. A new name costs no flush on ext4, where a rewrite in
    place or a rename over a file forces one. On any exception the `.tmp` is
    removed and an earlier file at `path` survives."""
    tmp = f"{os.fspath(path)}.tmp"
    f = open(tmp, "wb")  # outside the try: a path it cannot open is not its to remove
    try:
        with f:
            for chunk in chunks:
                f.write(chunk.encode() if isinstance(chunk, str) else chunk)
        remove_artifact(path)
        os.rename(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def save_checkpoint(path, params: dict, cfg: ModelConfig) -> None:
    """Write the echo of `cfg` and `params`, checked by `check_params`, in
    `param_layout(cfg)` order (`write_artifact`)."""
    check_params(cfg, params)
    layout = param_layout(cfg)
    pairs = " ".join(f"{k}={v}" for k, v in config_echo(cfg).items())
    header = [_MAGIC, f"config {pairs}\n",
              *(" ".join([name, *map(str, shape)]) + "\n" for name, shape, _ in layout), "end\n"]
    write_artifact(path, itertools.chain(header, (params[name].data.astype("<f8").tobytes()
                                                  for name, _, _ in layout)))


def load_checkpoint(path, cfg: ModelConfig = None) -> dict:
    """Returns name -> ndarray in manifest order. A malformed manifest or a
    payload whose length differs from what the manifest declares raises
    DomainError naming the file, and so does a version 1 file, which records
    no config to check. Given `cfg`, so does a config other than its echo,
    and a manifest other than `param_layout(cfg)` raises DimensionError."""
    if not os.path.isfile(path):
        raise DomainError(f"checkpoint file not found: {path}")
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as exc:
        raise DomainError(f"cannot read checkpoint file {path}: {exc.strerror}")
    if blob.startswith(b"dtst-checkpoint v1\n"):
        raise DomainError(f"{path} is a version 1 checkpoint, which records no model "
                          f"config; retrain to write a version 2 file")
    if not blob.startswith(_MAGIC):
        raise DomainError(f"{path} is not a checkpoint file")
    header_end = blob.find(b"\nend\n")
    if header_end < 0:
        raise DomainError(f"{path}: checkpoint manifest has no 'end' line")
    manifest = blob[len(_MAGIC):header_end + 1].decode("ascii", "replace").splitlines()
    payload = blob[header_end + len(b"\nend\n"):]
    line = manifest.pop(0) if manifest else ""
    parts = line.split()
    if parts[:1] != ["config"] or not all("=" in p for p in parts[1:]):
        raise DomainError(f"{path}:2: bad config line {line!r}")
    recorded = dict(p.split("=", 1) for p in parts[1:])
    shapes = {}
    for lineno, line in enumerate(manifest, 3):
        parts = line.split()
        if not parts or parts[0] in shapes or not all(v.isdigit() for v in parts[1:]):
            raise DomainError(f"{path}:{lineno}: bad manifest line {line!r}")
        shapes[parts[0]] = tuple(int(v) for v in parts[1:])
    counts = [math.prod(dims) for dims in shapes.values()]
    if 8 * sum(counts) != len(payload):
        raise DomainError(f"{path}: payload holds {len(payload)} bytes, the manifest "
                          f"declares {8 * sum(counts)}")
    if cfg is not None:
        wanted = config_echo(cfg)
        for key in dict.fromkeys([*wanted, *recorded]):
            if recorded.get(key) != wanted.get(key):
                raise DomainError(f"{path} was trained with {key} = {recorded.get(key)}, "
                                  f"the config has {key} = {wanted.get(key)}")
        _compare_layout([(name, shape) for name, shape, _ in param_layout(cfg)], shapes,
                        f"{path}: the manifest does not match the model config's layout")
    parts = np.split(np.frombuffer(payload, dtype="<f8").astype(np.float64),
                     np.cumsum(counts[:-1], dtype=np.int64))
    return {name: part.reshape(dims) for (name, dims), part in zip(shapes.items(), parts)}


def restore_params(params: dict, arrays: dict) -> None:
    """Check the arrays' names and shapes against `params`
    (`_compare_layout`), then copy them into the existing `p.data` arrays in
    place: an SgdState's parameters stay views of its buffer."""
    _compare_layout([(name, p.shape) for name, p in params.items()],
                    {name: a.shape for name, a in arrays.items()},
                    "the checkpoint arrays do not match the params")
    for name, p in params.items():
        p.data[...] = arrays[name]
