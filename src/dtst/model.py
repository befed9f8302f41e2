"""View-decoupled transformer backbone with a pluggable token selector.

Sequence layout: slot 0 is the meta (global) token, slot 1 the view token,
slots 2.. hold patch tokens. Each block is a pre-norm encoder followed by the
decoupling subtraction meta <- meta - view. The retrieval embedding is the
final meta slot. The selector, when present, runs in front of one block
(`ModelConfig.selector_block`); that block and every later one encode the
reduced sequence.
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
# Gain on the straight-through attention bias. The bias is identically zero
# in the forward pass, so this constant only rescales the scorer's gradient;
# without it the scorer's updates are dwarfed by the backbone's.
ST_BIAS_GAIN = 4.0


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
            if self.selector.num_heads and self.embed_dim % self.selector.num_heads != 0:
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
    view_labels: np.ndarray   # [B] of VIEW_AERIAL / VIEW_GROUND
    origin_index: np.ndarray  # [B, T-2] original grid index of each patch slot


@dataclass
class ForwardResult:
    meta_feature: Tensor      # [B, d]
    view_feature: Tensor      # [B, d]
    id_logits: Tensor         # [B, num_identities]
    view_logits: Tensor       # [B, 2]
    selected_origin: np.ndarray = None  # [B, K] grid indices kept by the selector
    selected_slots: np.ndarray = None   # [B, K] patch-slot indices chosen
    selected_soft: np.ndarray = None    # [B, K] soft weights at those slots
    token_scores: Tensor = None         # [B, M] score distribution over patch tokens


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
    # Identity-initialized (and placed last so a given seed yields the same
    # backbone with or without the selector): the initial score is then each
    # token's squared norm, which already correlates with signal content and
    # keeps the scorer out of the near-uniform regime where its
    # straight-through gradient is too weak to escape.
    if cfg.selector is not None:
        p["selector.wq"] = Tensor(np.eye(d), requires_grad=True)
        p["selector.wk"] = Tensor(np.eye(d), requires_grad=True)
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

    tokens = T.make(tokens, (meta,) + views + (patches,), bwd)
    origin = np.broadcast_to(np.arange(m), (b, m)).copy()
    return TokenSequence(tokens=tokens, view_labels=view_labels, origin_index=origin)


def encoder_block(seq: TokenSequence, params: dict, index: int,
                  cfg: ModelConfig, key_bias: Tensor = None) -> TokenSequence:
    """Pre-norm multi-head self-attention and MLP, both with residuals.
    `key_bias` [B, T] is added to every attention logit of its key."""
    pre = f"block{index}."
    x = seq.tokens
    normed = T.layer_norm(x, params[pre + "ln1.gamma"], params[pre + "ln1.beta"], LN_EPS)
    attn = T.attention(normed,
                       [params[pre + "attn." + n] for n in ("wq", "wk", "wv", "wo")],
                       [params[pre + "attn." + n] for n in ("bq", "bk", "bv", "bo")],
                       cfg.num_attn_heads, key_bias)
    x = x + attn
    normed = T.layer_norm(x, params[pre + "ln2.gamma"], params[pre + "ln2.beta"], LN_EPS)
    h = T.gelu(T.linear(normed, params[pre + "mlp.w1"], params[pre + "mlp.b1"]))
    x = x + T.linear(h, params[pre + "mlp.w2"], params[pre + "mlp.b2"])
    return replace(seq, tokens=x)


def vdt_decouple(seq: TokenSequence) -> TokenSequence:
    """meta <- meta - view; view and patch slots pass through unchanged."""
    return replace(seq, tokens=T.sub_slot(seq.tokens, 0, 1))


def _straight_through_bias(soft: Tensor, indices, picked, base) -> Tensor:
    """Attention key bias [B, 2 + K] for the reduced sequence: zero at the
    two special slots, (picked - base) * ST_BIAS_GAIN at the kept tokens,
    where `picked` is soft[indices]. With `base` equal to `picked` it is
    exactly zero in the forward pass, while its gradient reaches the
    selected soft weights."""
    b, k = indices.shape
    rows = np.arange(b)[:, None]
    out = np.zeros((b, k + 2))
    out[:, 2:] = picked - base
    out[:, 2:] *= ST_BIAS_GAIN

    def bwd(g):
        gsoft = np.zeros_like(soft.data)
        gsoft[rows, indices] = g[:, 2:] * ST_BIAS_GAIN  # indices distinct per row
        return (gsoft,)

    return T.make(out, (soft,), bwd)


def _apply_selector(seq: TokenSequence, params: dict, cfg: SelectorConfig,
                    rng, training: bool, frozen=None):
    """Score the patch tokens, keep the top K and weight them straight
    through. Returns the reduced sequence, the attention key bias for the
    block it enters, and the ForwardResult selection fields.

    `frozen`, when given, is (slot indices [B, K], baseline soft weights
    [B, K]): it replaces the selected indices and the straight-through
    stop-gradient constant, and selection runs without noise, which makes
    the whole forward a smooth function of the parameters (used by
    finite-difference checks).
    """
    m = seq.tokens.shape[1] - 2
    patches = T.narrow(seq.tokens, 1, 2, m)
    scores = sel.score_tokens(patches, params["selector.wq"], params["selector.wk"],
                              cfg.num_heads)
    noise = cfg.noise_enabled and training and frozen is None
    indices, soft = sel.perturbed_topk(scores, replace(cfg, noise_enabled=noise), rng)
    if frozen is not None:
        indices = frozen[0]
    indices = np.asarray(indices)
    picked = soft.data[np.arange(len(indices))[:, None], indices]
    # zero in the forward pass; its gradient measures how much more attention
    # (and residual weight) each kept token should receive, which is what
    # actually trains the scorer
    key_bias = _straight_through_bias(soft, indices, picked,
                                      picked if frozen is None else np.asarray(frozen[1]))
    tokens, origin = sel.select_tokens(seq.tokens, seq.origin_index, indices)
    seq = replace(seq, tokens=T.scale_tokens(tokens, key_bias), origin_index=origin)
    selection = {"selected_origin": origin, "selected_slots": indices,
                 "selected_soft": picked, "token_scores": scores}
    return seq, key_bias, selection


def model_forward(cfg: ModelConfig, params: dict, x, view_labels,
                  rng=None, training: bool = False,
                  frozen_selection=None) -> ForwardResult:
    """Full forward pass: embed, N encoder+decouple blocks with the selector
    in front of `cfg.selector_block`, classifier heads."""
    patches = patch_embed(x, params, cfg)
    seq = attach_special_tokens(patches, view_labels, params)
    selection = {}
    for i in range(cfg.num_blocks):
        key_bias = None
        if i == cfg.selector_block:
            seq, key_bias, selection = _apply_selector(seq, params, cfg.selector, rng,
                                                       training, frozen=frozen_selection)
        seq = encoder_block(seq, params, i, cfg, key_bias=key_bias)
        seq = vdt_decouple(seq)
    b, _, d = seq.tokens.shape
    meta = T.reshape(T.narrow(seq.tokens, 1, 0, 1), (b, d))
    view = T.reshape(T.narrow(seq.tokens, 1, 1, 1), (b, d))
    id_logits = T.linear(meta, params["head.id.w"], params["head.id.b"])
    view_logits = T.linear(view, params["head.view.w"], params["head.view.b"])
    return ForwardResult(meta_feature=meta, view_feature=view, id_logits=id_logits,
                         view_logits=view_logits, **selection)


# ---------------------------------------------------------------------------
# checkpoint format: text manifest (one "name dim dim ..." line per parameter,
# in insertion order), an "end" line, then the flat float64 little-endian data.

_MAGIC = b"dtst-checkpoint v1\n"


def save_checkpoint(path, params: dict) -> None:
    with open(path, "wb") as f:
        f.write(_MAGIC)
        for name, p in params.items():
            dims = " ".join(str(n) for n in p.shape)
            f.write(f"{name} {dims}".rstrip().encode() + b"\n")
        f.write(b"end\n")
        for p in params.values():
            f.write(p.data.astype("<f8").tobytes())


def load_checkpoint(path) -> dict:
    """Returns name -> ndarray in manifest order. A malformed manifest or a
    payload whose length differs from what the manifest declares raises
    DomainError naming the file."""
    if not os.path.isfile(path):
        raise DomainError(f"checkpoint file not found: {path}")
    with open(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(_MAGIC):
        raise DomainError(f"{path} is not a checkpoint file")
    header_end = blob.find(b"\nend\n")
    if header_end < 0:
        raise DomainError(f"{path}: checkpoint manifest has no 'end' line")
    manifest = blob[len(_MAGIC):header_end + 1].decode("ascii", "replace").splitlines()
    payload = blob[header_end + len(b"\nend\n"):]
    shapes = {}
    for lineno, line in enumerate(manifest, 2):
        parts = line.split()
        if not parts or parts[0] in shapes or not all(v.isdigit() for v in parts[1:]):
            raise DomainError(f"{path}:{lineno}: bad manifest line {line!r}")
        shapes[parts[0]] = tuple(int(v) for v in parts[1:])
    counts = [math.prod(dims) for dims in shapes.values()]
    if 8 * sum(counts) != len(payload):
        raise DomainError(f"{path}: payload holds {len(payload)} bytes, the manifest "
                          f"declares {8 * sum(counts)}")
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
