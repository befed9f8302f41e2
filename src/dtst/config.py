"""Flat `key = value` experiment configuration.

Dotted keys group by subsystem (`model.`, `selector.`, ...). `#` starts a
comment. Unknown keys are rejected; absent optional keys take the documented
defaults. `load_config` validates every value against its owning type before
any run starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .data import GenConfig
from .errors import ConfigError, ConfigParseError
from .evaluate import EMBED_BATCH
from .model import MLP_RATIO, ModelConfig
from .optim import ScheduleConfig
from .selector import SelectorConfig


def _bool(text):
    if text in ("true", "false"):
        return text == "true"
    raise ValueError(f"expected true/false, got {text!r}")


def _float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _int_list(text):
    return [int(v) for v in text.split(",") if v != ""]


def _str_list(text):
    return [v.strip() for v in text.split(",") if v.strip()]


_REQUIRED = object()

# key -> (parse, format, default)
_SCHEMA = {
    "seed": (int, str, _REQUIRED),
    "output_dir": (str, str, "runs"),
    "model.num_blocks": (int, str, 4),
    "model.embed_dim": (int, str, 16),
    "model.num_heads": (int, str, 2),
    "model.patch_rows": (int, str, 4),
    "model.patch_cols": (int, str, 4),
    "model.patch_dim": (int, str, 8),
    "selector.enabled": (_bool, lambda v: "true" if v else "false", True),
    "selector.k": (int, str, 2),
    "selector.temperature": (_float, repr, 1.0),
    "selector.heads": (int, str, 2),
    "selector.position": (str, str, "last"),
    "selector.noise": (_bool, lambda v: "true" if v else "false", True),
    "data.num_ids": (int, str, 32),
    "data.train_per_id_view": (int, str, 8),
    "data.test_per_id_view": (int, str, 4),
    "data.k_sig": (int, str, 3),
    "data.noise_std": (_float, repr, 1.0),
    "data.view_offset_scale": (_float, repr, 2.0),
    "schedule.lr_max": (_float, repr, 8e-3),
    "train.epochs": (int, str, 30),
    "train.batch_p": (int, str, 8),
    "train.batch_k": (int, str, 4),
    "eval.split_seed": (int, str, 0),
    "ablate.k": (_int_list, lambda v: ",".join(map(str, v)), [2, 3]),
    "ablate.positions": (_str_list, lambda v: ",".join(v), ["last"]),
}

MAX_ABLATION_CELLS = 64


@dataclass
class ExperimentConfig:
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    # -- typed sub-configs -------------------------------------------------

    def model_config(self) -> ModelConfig:
        v = self.values
        selector = None
        if v["selector.enabled"]:
            selector = SelectorConfig(k=v["selector.k"], position=v["selector.position"],
                                      noise_enabled=v["selector.noise"])
        return ModelConfig(
            num_identities=v["data.num_ids"],
            num_blocks=v["model.num_blocks"],
            embed_dim=v["model.embed_dim"],
            num_attn_heads=v["model.num_heads"],
            patch_grid=(v["model.patch_rows"], v["model.patch_cols"]),
            patch_dim=v["model.patch_dim"],
            selector=selector,
        )

    def gen_config(self, split: str = "train") -> GenConfig:
        v = self.values
        if split == "train":
            per_view = v["data.train_per_id_view"]
            sample_seed = v["seed"] + 1
        elif split == "test":
            per_view = v["data.test_per_id_view"]
            sample_seed = v["seed"] + 2
        else:
            raise ConfigError(f"unknown split {split!r}")
        return GenConfig(
            num_ids=v["data.num_ids"],
            samples_per_id_per_view=per_view,
            grid=(v["model.patch_rows"], v["model.patch_cols"]),
            patch_dim=v["model.patch_dim"],
            k_sig=v["data.k_sig"],
            noise_std=v["data.noise_std"],
            view_offset_scale=v["data.view_offset_scale"],
            seed=v["seed"],
            sample_seed=sample_seed,
        )

    def ablation_cells(self):
        """The `dtst ablate` cells: this config with the selector off, then the
        grid in `ablate.k` x `ablate.positions` order, each cell this config
        with the selector on and the cell's `selector.k` and
        `selector.position`; per cell, its config and its model config."""
        off = ExperimentConfig(values={**self.values, "selector.enabled": False})
        cells = [(off, off.model_config())]
        for k, pos in product(self.values["ablate.k"], self.values["ablate.positions"]):
            cell = ExperimentConfig(values={**self.values, "selector.enabled": True,
                                            "selector.k": k, "selector.position": pos})
            try:
                cells.append((cell, cell.model_config()))
            except ConfigError as exc:
                raise ConfigError(f"ablate.k = {k}, ablate.positions = {pos}: {exc}") from None
        return cells

    def validate(self):
        """Build every typed sub-config so invariants fire before a run, and
        reject extents that would make an array beyond numpy's index range."""
        for key in ("seed", "eval.split_seed"):
            if self.values[key] < 0:
                raise ConfigError(f"{key} must be >= 0, got {self.values[key]}")
        self.model_config()
        self.gen_config("train")
        self.gen_config("test")
        # train_run sets the step count; this checks the lr range alone
        ScheduleConfig(lr_max=self.values["schedule.lr_max"], total_steps=1)
        # accepted so that older configs still load; neither has an effect
        for key in ("selector.heads", "selector.temperature"):
            if self.values[key] <= 0:
                raise ConfigError(f"{key} must be > 0, got {self.values[key]}")
        cells = len(self.values["ablate.k"]) * len(self.values["ablate.positions"])
        if not 1 <= cells <= MAX_ABLATION_CELLS:
            raise ConfigError(f"ablation grid has {cells} cells, limit {MAX_ABLATION_CELLS}")
        self.ablation_cells()
        if min(self.values["train.batch_p"], self.values["train.batch_k"],
               self.values["train.epochs"]) < 1:
            raise ConfigError("train.* extents must be positive")
        for keys, count in self._array_extents():
            if 8 * count > np.iinfo(np.intp).max:
                raise ConfigError(f"{', '.join(keys)} make a float64 array of {count} "
                                  f"elements, beyond numpy's index range")

    def _array_extents(self):
        """(keys, element count) of the largest arrays a run makes, counted
        with Python integers: each generated split, and for a batch of B
        samples (the larger of the training batch P x K and the embedding
        batch) its input grid, its widest activation (the MLP hidden layer,
        B x (M+2) x 4d) and its attention matrix (B x H x (M+2)^2), then the
        largest weights."""
        v = self.values
        m, d = v["model.patch_rows"] * v["model.patch_cols"], v["model.embed_dim"]
        b = max(v["train.batch_p"] * v["train.batch_k"], EMBED_BATCH)
        grid = ("model.patch_rows", "model.patch_cols")
        batch = ("train.batch_p", "train.batch_k", *grid)
        return [
            (("data.num_ids", f"data.{split}_per_id_view", *grid, "model.patch_dim"),
             v["data.num_ids"] * 2 * v[f"data.{split}_per_id_view"] * m * v["model.patch_dim"])
            for split in ("train", "test")
        ] + [
            ((*batch, "model.patch_dim"), b * m * v["model.patch_dim"]),
            ((*batch, "model.embed_dim"), b * (m + 2) * MLP_RATIO * d),
            ((*batch, "model.num_heads"), b * v["model.num_heads"] * (m + 2) ** 2),
            (("model.patch_dim", "model.embed_dim"), v["model.patch_dim"] * d),
            (("model.embed_dim",), MLP_RATIO * d * d),
            (("model.embed_dim", "data.num_ids"), d * v["data.num_ids"]),
        ]


def parse_config_text(text: str) -> ExperimentConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA:
            raise ConfigParseError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigParseError(f"duplicate key {key!r}", lineno)
        parse, _, _ = _SCHEMA[key]
        try:
            values[key] = parse(val)
        except ValueError as exc:
            raise ConfigParseError(f"bad value for {key!r}: {exc}", lineno)
    for key, (_, _, default) in _SCHEMA.items():
        if key not in values:
            if default is _REQUIRED:
                raise ConfigParseError(f"missing required key {key!r}")
            values[key] = default
    cfg = ExperimentConfig(values=values)
    cfg.validate()
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config file {path}: {exc.strerror}")
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"{path}: not UTF-8 text at byte offset {exc.start}")
    return parse_config_text(text)


def format_config(cfg: ExperimentConfig) -> str:
    """Canonical echo of the fully defaulted config; round-trips through
    `parse_config_text` to an identical config."""
    lines = []
    for key in sorted(_SCHEMA):
        _, fmt, _ = _SCHEMA[key]
        lines.append(f"{key} = {fmt(cfg.values[key])}")
    return "\n".join(lines) + "\n"
