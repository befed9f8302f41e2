"""Synthetic cross-view dataset with planted signal tokens, PK batching, and
the embedding export that `dtst eval` writes.

Each identity owns a prototype vector and each view a shared offset vector.
A sample plants prototype + view offset + small noise into `k_sig` randomly
chosen grid slots; every other slot is pure unit Gaussian noise. Identity
evidence therefore lives in a known token subset, which is what makes token
selection measurably useful.

A split is a `Dataset`: four read-only arrays with one row per sample. A
training batch is one integer-array index of them and an embedding batch a
row slice, so no step stacks samples one by one.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, ContractError, DimensionError, SamplingError, check_count,
                     check_grid, is_finite_real)
from .model import VIEW_AERIAL, VIEW_GROUND, VIEW_NAMES, write_artifact

SAMPLE_SEED_OFFSET = {"train": 1, "test": 2}  # a split draws its samples from seed + offset


@dataclass
class Sample:
    """One row of a `Dataset`, as indexing it by an int or iterating it
    gives: `x` is a read-only view of the row."""
    x: np.ndarray          # [rows, cols, patch_dim]
    y: int                 # identity label
    v: int                 # VIEW_AERIAL or VIEW_GROUND
    signal_slots: tuple    # grid indices carrying the identity signal, ascending


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
    split: str = "train"  # a key of SAMPLE_SEED_OFFSET

    def __post_init__(self):
        if not isinstance(self.split, str) or self.split not in SAMPLE_SEED_OFFSET:
            raise ConfigError(f"unknown split {self.split!r}, not in {list(SAMPLE_SEED_OFFSET)}")
        for name in ("num_ids", "samples_per_id_per_view", "patch_dim", "k_sig"):
            value = getattr(self, name)
            setattr(self, name, check_count(value, 1, ConfigError, f"GenConfig extents must be "
                                            f"positive integers, got {name} = {value!r}"))
        self.grid = check_grid(self.grid, ConfigError, f"GenConfig.grid must be a pair of "
                               f"integers >= 1, got {self.grid!r}")
        m = self.grid[0] * self.grid[1]
        if not self.k_sig < m:
            raise ConfigError(f"k_sig must satisfy 1 <= k_sig < {m}, got {self.k_sig}")
        for name in ("noise_std", "view_offset_scale"):
            value = getattr(self, name)
            if not (is_finite_real(value) and value >= 0):
                raise ConfigError(f"GenConfig noise scales must be finite nonnegative numbers, "
                                  f"got {name} = {value!r}")
        self.seed = check_count(self.seed, 0, ConfigError,
                                f"GenConfig.seed must be an integer >= 0, got {self.seed!r}")


def identity_prototypes(cfg: GenConfig):
    """(prototypes [num_ids, patch_dim], view offsets [2, patch_dim], row
    VIEW_AERIAL then VIEW_GROUND), drawn from cfg.seed only, so train/test
    splits share them."""
    rng = np.random.default_rng(cfg.seed)
    protos = rng.normal(size=(cfg.num_ids, cfg.patch_dim))
    offsets = np.empty((2, cfg.patch_dim))
    for view in (VIEW_AERIAL, VIEW_GROUND):
        offsets[view] = rng.normal(scale=cfg.view_offset_scale, size=cfg.patch_dim)
    return protos, offsets


class Dataset:
    """A generated split, or rows of one: `x` [N, rows, cols, patch_dim]
    float64, `y` and `v` [N] int64 identity and view labels, and
    `signal_slots` [N, k_sig] int64, each row ascending. All four are
    read-only, so a batch sliced from a split cannot write into it, and the
    by-identity index `pk_batch` draws from is built on its first draw and
    kept.

    `len` counts the rows. A slice or an integer array of rows gives a
    `Dataset` (a slice's arrays are views, an integer array's copies); an
    int gives that row as a `Sample`, and so does iterating."""

    __slots__ = ("x", "y", "v", "signal_slots", "_id_rows")

    def __init__(self, x, y, v, signal_slots):
        for name, a in (("x", x), ("y", y), ("v", v), ("signal_slots", signal_slots)):
            a.flags.writeable = False
            setattr(self, name, a)
        self._id_rows = None

    def __len__(self):
        return len(self.y)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return Sample(x=self.x[index], y=int(self.y[index]), v=int(self.v[index]),
                          signal_slots=tuple(self.signal_slots[index].tolist()))
        return Dataset(self.x[index], self.y[index], self.v[index], self.signal_slots[index])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def id_rows(self):
        """The rows of each identity, ascending, one int64 array per
        identity in ascending order of identity."""
        if self._id_rows is None:
            order = np.argsort(self.y, kind="stable")
            _, starts = np.unique(self.y[order], return_index=True)
            self._id_rows = np.split(order, starts[1:])
        return self._id_rows


def generate_dataset(cfg: GenConfig) -> Dataset:
    """Balanced samples: num_ids * 2 * samples_per_id_per_view, identity by
    identity, each identity's aerial samples before its ground ones.

    Each sample takes three draws from the split's Generator, in this order:
    its noise grid, its signal slots and its signal noise. Every planted
    row is then written as (prototype + view offset) + noise."""
    rows, cols = cfg.grid
    m, pd, k = rows * cols, cfg.patch_dim, cfg.k_sig
    protos, offsets = identity_prototypes(cfg)
    rng = np.random.default_rng(cfg.seed + SAMPLE_SEED_OFFSET[cfg.split])
    per_view = cfg.samples_per_id_per_view
    n = cfg.num_ids * 2 * per_view
    y = np.repeat(np.arange(cfg.num_ids, dtype=np.int64), 2 * per_view)
    v = np.tile(np.repeat(np.array([VIEW_AERIAL, VIEW_GROUND], dtype=np.int64), per_view),
                cfg.num_ids)
    x = np.empty((n, m, pd))
    slots = np.empty((n, k), dtype=np.int64)
    noise = np.empty((n, k, pd))
    for i in range(n):
        x[i] = rng.normal(size=(m, pd))
        slots[i] = rng.choice(m, size=k, replace=False)
        noise[i] = rng.normal(scale=cfg.noise_std, size=(k, pd))
    x[np.arange(n)[:, None], slots] = (protos[y] + offsets[v])[:, None] + noise
    slots.sort(axis=1)
    return Dataset(x.reshape(n, rows, cols, pd), y, v, slots)


def check_pk(p, k_inst):
    """(P, K) as ints; `SamplingError` unless both are integers >= 1."""
    return tuple(check_count(n, 1, SamplingError, f"batch {name} must be an integer >= 1, "
                             f"got {n!r}") for name, n in (("P", p), ("K", k_inst)))


def pk_batch(dataset, p: int, k_inst: int, rng: np.random.Generator):
    """P distinct identities with exactly k_inst rows each, as the `Dataset`
    of those rows: identities drawn in one `rng.choice`, then each one's
    rows in one more."""
    if not isinstance(dataset, Dataset):
        raise ContractError(f"pk_batch draws from a data.Dataset, got {type(dataset).__name__}")
    p, k_inst = check_pk(p, k_inst)
    if not isinstance(rng, np.random.Generator):
        raise ContractError(f"pk_batch draws from a numpy Generator, got {rng!r}")
    eligible = [rows for rows in dataset.id_rows() if len(rows) >= k_inst]
    if len(eligible) < p:
        raise SamplingError(
            f"need {p} identities with >= {k_inst} samples, only {len(eligible)} available")
    ids = rng.choice(len(eligible), size=p, replace=False)
    return dataset[np.concatenate([rng.choice(eligible[i], size=k_inst, replace=False)
                                   for i in ids])]


def batch_arrays(batch):
    """(x [B, rows, cols, pd], y [B], v [B]) of a nonempty `Dataset`: its
    own read-only arrays, not copies."""
    if not isinstance(batch, Dataset):
        raise ContractError(f"batch_arrays takes a data.Dataset, got {type(batch).__name__}")
    if len(batch) == 0:
        raise DimensionError("no samples to batch")
    return batch.x, batch.y, batch.v


# ---------------------------------------------------------------------------
# embedding export: one line per embedding, e.g.
#   id=3 view=ground x=<base64 of float64 LE>
# written by `dtst eval`; no command reads it back.


def export_embeddings(path, embeddings, ids, views) -> None:
    lines = (f"id={int(y)} view={VIEW_NAMES[int(v)]} "
             f"x={base64.b64encode(np.asarray(emb, dtype='<f8').tobytes()).decode()}\n"
             for emb, y, v in zip(embeddings, ids, views))
    write_artifact(path, lines)
