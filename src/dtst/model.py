"""View-decoupled transformer backbone with a pluggable token selector.

Sequence layout: slot 0 is the meta (global) token, slot 1 the view token,
slots 2.. hold patch tokens. Each block is a pre-norm encoder followed by the
decoupling subtraction meta <- meta - view. The retrieval embedding is the
final meta slot. The selector, when present, runs in front of one block
(`ModelConfig.selector_block`) and keeps the two special tokens and the K
patch tokens of largest norm (Gumbel-perturbed when training with noise
on); that block and every later one encode the reduced sequence. Patch slot
i is grid cell i up to the selection, so the kept slot indices are also the
kept grid indices.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from . import selector as sel
from .errors import ConfigError, DimensionError, DomainError, NumericError
from .selector import SelectorConfig
from .tensor import Tensor

VIEW_AERIAL = 0
VIEW_GROUND = 1
VIEW_NAMES = {VIEW_AERIAL: "aerial", VIEW_GROUND: "ground"}
VIEW_IDS = {v: k for k, v in VIEW_NAMES.items()}

MLP_RATIO = 4
LN_EPS = 1e-6


@dataclass
class ModelConfig:
    num_identities: int
    num_blocks: int = 4
    embed_dim: int = 32
    num_attn_heads: int = 2
    patch_grid: tuple = (4, 4)
    patch_dim: int = 8
    selector: SelectorConfig = None

    def __post_init__(self):
        if self.embed_dim % self.num_attn_heads != 0:
            raise ConfigError(
                f"num_attn_heads {self.num_attn_heads} must divide embed_dim {self.embed_dim}")
        if min(self.num_identities, self.num_blocks, self.patch_dim) < 1:
            raise ConfigError("ModelConfig extents must be positive")
        if self.selector is not None:
            m = self.patch_grid[0] * self.patch_grid[1]
            if self.selector.k > m:
                raise ConfigError(f"SelectorConfig.K={self.selector.k} exceeds M={m}")
            if self.embed_dim % self.selector.num_heads != 0:
                raise ConfigError(
                    f"selector heads {self.selector.num_heads} must divide embed_dim")

    @property
    def num_patches(self):
        return self.patch_grid[0] * self.patch_grid[1]

    @property
    def selector_block(self):
        """Index of the block the selector runs in front of, or None without
        a selector: the final block for `last`, the one before it for
        `second_to_last`. A one-block model has no block before the final one;
        config files reject that combination, and a ModelConfig built directly
        selects in front of its only block."""
        if self.selector is None:
            return None
        if self.selector.position == sel.POSITION_LAST:
            return self.num_blocks - 1
        return max(self.num_blocks - 2, 0)


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


def _uniform(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def init_params(cfg: ModelConfig, seed: int) -> dict:
    """Fresh parameter dict, fully determined by the seed."""
    rng = np.random.default_rng(seed)
    d = cfg.embed_dim
    m = cfg.num_patches
    p = {}
    p["patch_embed.w"] = _uniform(rng, cfg.patch_dim, (cfg.patch_dim, d))
    p["patch_embed.b"] = Tensor(np.zeros(d), requires_grad=True)
    p["pos_embed"] = _uniform(rng, d, (m, d))
    p["meta_token"] = _uniform(rng, d, (d,))
    p["view_token.aerial"] = _uniform(rng, d, (d,))
    p["view_token.ground"] = _uniform(rng, d, (d,))
    for i in range(cfg.num_blocks):
        pre = f"block{i}."
        p[pre + "ln1.gamma"] = Tensor(np.ones(d), requires_grad=True)
        p[pre + "ln1.beta"] = Tensor(np.zeros(d), requires_grad=True)
        for name in ("wq", "wk", "wv", "wo"):
            p[pre + "attn." + name] = _uniform(rng, d, (d, d))
        for name in ("bq", "bk", "bv", "bo"):
            p[pre + "attn." + name] = Tensor(np.zeros(d), requires_grad=True)
        p[pre + "ln2.gamma"] = Tensor(np.ones(d), requires_grad=True)
        p[pre + "ln2.beta"] = Tensor(np.zeros(d), requires_grad=True)
        h = MLP_RATIO * d
        p[pre + "mlp.w1"] = _uniform(rng, d, (d, h))
        p[pre + "mlp.b1"] = Tensor(np.zeros(h), requires_grad=True)
        p[pre + "mlp.w2"] = _uniform(rng, h, (h, d))
        p[pre + "mlp.b2"] = Tensor(np.zeros(d), requires_grad=True)
    p["head.id.w"] = _uniform(rng, d, (d, cfg.num_identities))
    p["head.id.b"] = Tensor(np.zeros(cfg.num_identities), requires_grad=True)
    p["head.view.w"] = _uniform(rng, d, (d, len(VIEW_NAMES)))
    p["head.view.b"] = Tensor(np.zeros(len(VIEW_NAMES)), requires_grad=True)
    return p


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
    bad = set(view_labels.tolist()) - set(VIEW_NAMES)
    if bad:
        raise DomainError(f"unknown view labels {sorted(bad)}")
    meta = params["meta_token"]
    views = (params["view_token.aerial"], params["view_token.ground"])
    tokens = np.empty((b, m + 2, d))
    tokens[:, 0] = meta.data
    tokens[:, 1] = np.stack([t.data for t in views])[view_labels]
    tokens[:, 2:] = patches.data

    def bwd(g):
        gview = [g[view_labels == v, 1].sum(axis=0) for v in (VIEW_AERIAL, VIEW_GROUND)]
        return (g[:, 0].sum(axis=0), gview[0], gview[1], g[:, 2:])

    return TokenSequence(tokens=T.make(tokens, (meta,) + views + (patches,), bwd))


def encoder_block(seq: TokenSequence, params: dict, index: int,
                  cfg: ModelConfig) -> TokenSequence:
    """Pre-norm multi-head self-attention and MLP, both with residuals."""
    pre = f"block{index}."
    x = seq.tokens
    normed = T.layer_norm(x, params[pre + "ln1.gamma"], params[pre + "ln1.beta"], LN_EPS)
    attn = T.attention(normed,
                       [params[pre + "attn." + n] for n in ("wq", "wk", "wv", "wo")],
                       [params[pre + "attn." + n] for n in ("bq", "bk", "bv", "bo")],
                       cfg.num_attn_heads)
    x = x + attn
    normed = T.layer_norm(x, params[pre + "ln2.gamma"], params[pre + "ln2.beta"], LN_EPS)
    h = T.gelu(T.linear(normed, params[pre + "mlp.w1"], params[pre + "mlp.b1"]))
    x = x + T.linear(h, params[pre + "mlp.w2"], params[pre + "mlp.b2"])
    return replace(seq, tokens=x)


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
        logits = sel.score_tokens(seq.tokens.data[:, 2:], cfg.num_heads)
        indices = sel.perturbed_topk(logits, cfg.k, cfg.noise_enabled and training, rng)
    indices = np.asarray(indices)
    seq = replace(seq, tokens=sel.select_tokens(seq.tokens, indices))
    return seq, {"selected_origin": indices, "selected_slots": indices}


def model_forward(cfg: ModelConfig, params: dict, x, view_labels,
                  rng=None, training: bool = False,
                  frozen_selection=None) -> ForwardResult:
    """Full forward pass: embed, N encoder+decouple blocks with the selector
    in front of `cfg.selector_block`, classifier heads."""
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
# in insertion order), an "end" line, then the flat float64 little-endian
# data. Version 1 files had no config line and are rejected.

_MAGIC = b"dtst-checkpoint v2\n"


def config_echo(cfg: ModelConfig) -> dict:
    """The config-file keys that shape an eval forward, with their values as
    text: `model.*`, `data.num_ids` and the selector's `enabled`, `k` and
    `position`. The selector's heads only scale its logits and its noise is
    off at eval, so neither changes a kept token there: both are left out."""
    echo = {"model.num_blocks": cfg.num_blocks, "model.embed_dim": cfg.embed_dim,
            "model.num_heads": cfg.num_attn_heads, "model.patch_rows": cfg.patch_grid[0],
            "model.patch_cols": cfg.patch_grid[1], "model.patch_dim": cfg.patch_dim,
            "data.num_ids": cfg.num_identities,
            "selector.enabled": "false" if cfg.selector is None else "true"}
    if cfg.selector is not None:
        echo.update({"selector.k": cfg.selector.k, "selector.position": cfg.selector.position})
    return {key: str(value) for key, value in echo.items()}


def save_checkpoint(path, params: dict, cfg: ModelConfig) -> None:
    """Write `params` and the echo of `cfg` to `<path>.tmp` in the same
    directory, then rename it over `path`, so a write that fails midway
    leaves any earlier file intact."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(_MAGIC)
            pairs = " ".join(f"{k}={v}" for k, v in config_echo(cfg).items())
            f.write(f"config {pairs}\n".encode())
            for name, p in params.items():
                dims = " ".join(str(n) for n in p.shape)
                f.write(f"{name} {dims}".rstrip().encode() + b"\n")
            f.write(b"end\n")
            for p in params.values():
                f.write(p.data.astype("<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path, cfg: ModelConfig = None) -> dict:
    """Returns name -> ndarray in manifest order. A malformed manifest or a
    payload whose length differs from what the manifest declares raises
    DomainError naming the file, and so does a version 1 file, which records
    no config to check. Given `cfg`, so does a recorded config that differs
    from `cfg`'s echo."""
    if not os.path.isfile(path):
        raise DomainError(f"checkpoint file not found: {path}")
    with open(path, "rb") as f:
        blob = f.read()
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
    out = {}
    offset = 0
    for (name, dims), count in zip(shapes.items(), counts):
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        out[name] = arr.reshape(dims).astype(np.float64)
        offset += count * 8
    return out


def restore_params(params: dict, arrays: dict) -> None:
    """Load checkpoint arrays into an existing parameter dict in place."""
    missing = set(params) - set(arrays)
    extra = set(arrays) - set(params)
    if missing or extra:
        raise DomainError(f"checkpoint mismatch: missing {sorted(missing)}, "
                          f"unexpected {sorted(extra)}")
    for name, p in params.items():
        if arrays[name].shape != p.shape:
            raise DimensionError(f"checkpoint shape {arrays[name].shape} for "
                                 f"'{name}' does not match {p.shape}")
        p.data = arrays[name].copy()
