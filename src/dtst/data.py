"""Synthetic cross-view dataset with planted signal tokens, PK batching, and
the embedding export that `dtst eval` writes.

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

from .errors import ConfigError, DimensionError, SamplingError, check_count
from .model import VIEW_AERIAL, VIEW_GROUND, VIEW_NAMES


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
        self.seed = check_count(self.seed, 0, ConfigError,
                                f"GenConfig.seed must be an integer >= 0, got {self.seed!r}")
        if self.sample_seed is not None:
            self.sample_seed = check_count(
                self.sample_seed, 0, ConfigError,
                f"GenConfig.sample_seed must be an integer >= 0, got {self.sample_seed!r}")


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


class Dataset(list):
    """A generated split: the list of its samples. It carries the
    by-identity index `pk_batch` draws from (identity -> positions of its
    samples), built by the first draw and kept, so the list must not change
    after that. A slice or a `list()` copy is a plain list, which `pk_batch`
    indexes on every call."""

    _by_id = None

    def by_id(self):
        """identity -> int64 array of the positions of its samples."""
        if self._by_id is None:
            self._by_id = _index_by_id(self)
        return self._by_id


def _index_by_id(dataset):
    """identity -> int64 array of the positions of its samples, ascending."""
    by_id = {}
    for i, s in enumerate(dataset):
        by_id.setdefault(s.y, []).append(i)
    return {y: np.array(idxs) for y, idxs in by_id.items()}


def generate_dataset(cfg: GenConfig) -> Dataset:
    """Balanced samples: num_ids * 2 * samples_per_id_per_view."""
    rows, cols = cfg.grid
    m = rows * cols
    protos, offsets = identity_prototypes(cfg)
    sample_seed = cfg.seed + 1 if cfg.sample_seed is None else cfg.sample_seed
    rng = np.random.default_rng(sample_seed)
    samples = Dataset()
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


def check_pk(p, k_inst):
    """(P, K) as ints; `SamplingError` unless both are integers >= 1."""
    return tuple(check_count(n, 1, SamplingError, f"batch {name} must be an integer >= 1, "
                             f"got {n!r}") for name, n in (("P", p), ("K", k_inst)))


def pk_batch(dataset, p: int, k_inst: int, rng: np.random.Generator):
    """P distinct identities with exactly k_inst samples each."""
    p, k_inst = check_pk(p, k_inst)
    by_id = dataset.by_id() if isinstance(dataset, Dataset) else _index_by_id(dataset)
    eligible = [y for y, idxs in by_id.items() if len(idxs) >= k_inst]
    if len(eligible) < p:
        raise SamplingError(
            f"need {p} identities with >= {k_inst} samples, only {len(eligible)} available")
    ids = rng.choice(np.array(sorted(eligible)), size=p, replace=False)
    chosen = []
    for y in ids:
        picks = rng.choice(by_id[int(y)], size=k_inst, replace=False)
        chosen.extend(int(i) for i in picks)
    return [dataset[i] for i in chosen]


def batch_arrays(batch):
    """(x [B, rows, cols, pd], y [B], v [B]) stacked from a nonempty list of
    samples."""
    if len(batch) == 0:
        raise DimensionError("no samples to batch")
    x = np.stack([s.x for s in batch])
    y = np.array([s.y for s in batch], dtype=np.int64)
    v = np.array([s.v for s in batch], dtype=np.int64)
    return x, y, v


# ---------------------------------------------------------------------------
# embedding export: one line per embedding, e.g.
#   id=3 view=ground x=<base64 of float64 LE>
# written by `dtst eval`; no command reads it back.


def export_embeddings(path, embeddings, ids, views) -> None:
    with open(path, "w", encoding="ascii") as f:
        for emb, y, v in zip(embeddings, ids, views):
            x = base64.b64encode(np.asarray(emb, dtype="<f8").tobytes()).decode("ascii")
            f.write(f"id={int(y)} view={VIEW_NAMES[int(v)]} x={x}\n")
