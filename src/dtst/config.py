"""Flat `key = value` experiment configuration.

Dotted keys group by subsystem (`model.`, `selector.`, ...). `#` starts a
comment. Unknown keys are rejected; absent optional keys take the documented
defaults. `load_config` validates every value against its owning type before
any run starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import GenConfig
from .errors import ConfigError, ConfigParseError
from .losses import LossWeights
from .model import ModelConfig
from .optim import ScheduleConfig, SgdState
from .selector import POSITION_SECOND_TO_LAST, POSITIONS, SelectorConfig


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
    "schedule.lr_min": (_float, repr, 1.6e-6),
    "train.epochs": (int, str, 30),
    "train.batch_p": (int, str, 8),
    "train.batch_k": (int, str, 4),
    "train.momentum": (_float, repr, 0.9),
    "loss.view_weight": (_float, repr, 1.0),
    "loss.orth_weight": (_float, repr, 3.0),
    "eval.split_seed": (int, str, 0),
    "eval.baseline_checkpoint": (str, str, ""),
    "ablate.heads": (_int_list, lambda v: ",".join(map(str, v)), [2, 8]),
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

    def selector_config(self) -> SelectorConfig:
        if not self.values["selector.enabled"]:
            return None
        return SelectorConfig(
            k=self.values["selector.k"],
            num_heads=self.values["selector.heads"],
            position=self.values["selector.position"],
            noise_enabled=self.values["selector.noise"],
        )

    def model_config(self, with_selector: bool = True) -> ModelConfig:
        v = self.values
        selector = self.selector_config() if with_selector else None
        if selector is not None:
            _check_position(selector.position, v["model.num_blocks"], "selector.position")
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

    def loss_weights(self) -> LossWeights:
        return LossWeights(view_weight=self.values["loss.view_weight"],
                           orth_weight=self.values["loss.orth_weight"])

    def validate(self):
        """Build every typed sub-config so invariants fire before a run."""
        self.model_config()
        self.gen_config("train")
        self.gen_config("test")
        # train_run sets the step count and builds the optimizer state; these
        # check the lr range and the momentum alone
        ScheduleConfig(lr_max=self.values["schedule.lr_max"],
                       lr_min=self.values["schedule.lr_min"], total_steps=1)
        SgdState(learning_rate=self.values["schedule.lr_max"],
                 momentum=self.values["train.momentum"])
        self.loss_weights()
        # accepted so that older configs still load; it has no effect
        if self.values["selector.temperature"] <= 0:
            raise ConfigError(f"selector.temperature must be > 0, "
                              f"got {self.values['selector.temperature']}")
        for pos in self.values["ablate.positions"]:
            if pos not in POSITIONS:
                raise ConfigError(f"ablate.positions entry {pos!r} not in {POSITIONS}")
            _check_position(pos, self.values["model.num_blocks"], "ablate.positions")
        cells = (len(self.values["ablate.heads"]) * len(self.values["ablate.k"])
                 * len(self.values["ablate.positions"]))
        if not 1 <= cells <= MAX_ABLATION_CELLS:
            raise ConfigError(f"ablation grid has {cells} cells, limit {MAX_ABLATION_CELLS}")
        if min(self.values["train.batch_p"], self.values["train.batch_k"],
               self.values["train.epochs"]) < 1:
            raise ConfigError("train.* extents must be positive")


def _check_position(position, num_blocks, key):
    """`second_to_last` selects in front of the block before the final one,
    so it needs at least two blocks."""
    if position == POSITION_SECOND_TO_LAST and num_blocks < 2:
        raise ConfigError(f"{key} = {position} needs model.num_blocks >= 2, "
                          f"got {num_blocks}")


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
    with open(path, encoding="utf-8") as f:
        return parse_config_text(f.read())


def format_config(cfg: ExperimentConfig) -> str:
    """Canonical echo of the fully defaulted config; round-trips through
    `parse_config_text` to an identical config."""
    lines = []
    for key in sorted(_SCHEMA):
        _, fmt, _ = _SCHEMA[key]
        lines.append(f"{key} = {fmt(cfg.values[key])}")
    return "\n".join(lines) + "\n"
