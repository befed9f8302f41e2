"""Synthetic cross-view dataset with planted signal tokens, plus PK batching.

Each identity owns a prototype vector and each view a shared offset vector.
A sample plants prototype + view offset + small noise into `k_sig` randomly
chosen grid slots; every other slot is pure unit Gaussian noise. Identity
evidence therefore lives in a known token subset, which is what makes token
selection measurably useful.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, SamplingError
from .model import VIEW_AERIAL, VIEW_GROUND, VIEW_IDS, VIEW_NAMES


@dataclass
class Sample:
    x: np.ndarray          # [rows, cols, patch_dim]
    y: int                 # identity label
    v: int                 # VIEW_AERIAL or VIEW_GROUND
    signal_slots: tuple    # grid indices carrying the identity signal


@dataclass
class GenConfig:
    num_ids: int = 32
    samples_per_id_per_view: int = 8
    grid: tuple = (4, 4)
    patch_dim: int = 8
    k_sig: int = 3
    noise_std: float = 1.0
    view_offset_scale: float = 2.0
    seed: int = 0
    sample_seed: int = None  # per-sample randomness; defaults to seed + 1

    def __post_init__(self):
        m = self.grid[0] * self.grid[1]
        if not (1 <= self.k_sig < m):
            raise ConfigError(f"k_sig must satisfy 1 <= k_sig < {m}, got {self.k_sig}")
        if min(self.num_ids, self.samples_per_id_per_view, self.patch_dim) < 1:
            raise ConfigError("GenConfig extents must be positive")
        if self.noise_std < 0 or self.view_offset_scale < 0:
            raise ConfigError("noise scales must be nonnegative")


def identity_prototypes(cfg: GenConfig):
    """(prototypes [num_ids, patch_dim], view offsets {view: [patch_dim]}),
    drawn from cfg.seed only, so train/test splits share them."""
    rng = np.random.default_rng(cfg.seed)
    protos = rng.normal(size=(cfg.num_ids, cfg.patch_dim))
    offsets = {
        VIEW_AERIAL: rng.normal(scale=cfg.view_offset_scale, size=cfg.patch_dim),
        VIEW_GROUND: rng.normal(scale=cfg.view_offset_scale, size=cfg.patch_dim),
    }
    return protos, offsets


def generate_dataset(cfg: GenConfig):
    """Balanced list of samples: num_ids * 2 * samples_per_id_per_view."""
    rows, cols = cfg.grid
    m = rows * cols
    protos, offsets = identity_prototypes(cfg)
    sample_seed = cfg.seed + 1 if cfg.sample_seed is None else cfg.sample_seed
    rng = np.random.default_rng(sample_seed)
    samples = []
    for y in range(cfg.num_ids):
        for v in (VIEW_AERIAL, VIEW_GROUND):
            for _ in range(cfg.samples_per_id_per_view):
                x = rng.normal(size=(m, cfg.patch_dim))
                slots = rng.choice(m, size=cfg.k_sig, replace=False)
                noise = rng.normal(scale=cfg.noise_std,
                                   size=(cfg.k_sig, cfg.patch_dim))
                x[slots] = protos[y] + offsets[v] + noise
                samples.append(Sample(x=x.reshape(rows, cols, cfg.patch_dim),
                                      y=y, v=v,
                                      signal_slots=tuple(sorted(slots.tolist()))))
    return samples


def pk_batch(dataset, p: int, k_inst: int, rng: np.random.Generator):
    """P distinct identities with exactly k_inst samples each."""
    by_id = {}
    for i, s in enumerate(dataset):
        by_id.setdefault(s.y, []).append(i)
    eligible = [y for y, idxs in by_id.items() if len(idxs) >= k_inst]
    if len(eligible) < p:
        raise SamplingError(
            f"need {p} identities with >= {k_inst} samples, only {len(eligible)} available")
    ids = rng.choice(np.array(sorted(eligible)), size=p, replace=False)
    chosen = []
    for y in ids:
        picks = rng.choice(np.array(by_id[int(y)]), size=k_inst, replace=False)
        chosen.extend(int(i) for i in picks)
    return [dataset[i] for i in chosen]


def batch_arrays(batch):
    """(x [B, rows, cols, pd], y [B], v [B]) stacked from a list of samples."""
    x = np.stack([s.x for s in batch])
    y = np.array([s.y for s in batch], dtype=np.int64)
    v = np.array([s.v for s in batch], dtype=np.int64)
    return x, y, v


# ---------------------------------------------------------------------------
# export format: one line per sample, e.g.
#   id=3 view=ground signal=1,5,9 shape=4,4,8 x=<base64 of float64 LE>


def _encode_floats(arr):
    return base64.b64encode(np.asarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _decode_floats(text):
    return np.frombuffer(base64.b64decode(text), dtype="<f8").astype(np.float64)


def export_dataset(path, samples) -> None:
    with open(path, "w", encoding="ascii") as f:
        for s in samples:
            slots = ",".join(str(i) for i in s.signal_slots)
            shape = ",".join(str(n) for n in s.x.shape)
            f.write(f"id={s.y} view={VIEW_NAMES[s.v]} signal={slots} "
                    f"shape={shape} x={_encode_floats(s.x)}\n")


def import_dataset(path):
    samples = []
    with open(path, encoding="ascii") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                fields = dict(part.split("=", 1) for part in line.split())
                view = VIEW_IDS[fields["view"]]
                shape = tuple(int(n) for n in fields["shape"].split(","))
                slots = tuple(int(n) for n in fields["signal"].split(","))
                x = _decode_floats(fields["x"]).reshape(shape)
                samples.append(Sample(x=x, y=int(fields["id"]), v=view,
                                      signal_slots=slots))
            except (KeyError, ValueError) as exc:
                raise DomainError(f"{path}:{lineno}: bad sample record ({exc})")
    return samples


def export_embeddings(path, embeddings, ids, views) -> None:
    """Same base64 line format with (id, view) headers only."""
    with open(path, "w", encoding="ascii") as f:
        for emb, y, v in zip(embeddings, ids, views):
            f.write(f"id={int(y)} view={VIEW_NAMES[int(v)]} x={_encode_floats(emb)}\n")


def import_embeddings(path):
    embs, ids, views = [], [], []
    with open(path, encoding="ascii") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                fields = dict(part.split("=", 1) for part in line.split())
                embs.append(_decode_floats(fields["x"]))
                ids.append(int(fields["id"]))
                views.append(VIEW_IDS[fields["view"]])
            except (KeyError, ValueError) as exc:
                raise DomainError(f"{path}:{lineno}: bad embedding record ({exc})")
    return np.stack(embs), np.array(ids), np.array(views)
