"""Config parsing: defaults, validation, error line numbers, round-trips."""

import pytest

from dtst import config as config_mod
from dtst.config import format_config, load_config, parse_config_text
from dtst.data import GenConfig
from dtst.errors import ConfigError, ConfigParseError
from dtst.model import ModelConfig
from dtst.selector import SelectorConfig

MINIMAL = "seed = 0\n"


def test_minimal_config_fills_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg["seed"] == 0
    assert cfg["model.num_blocks"] == 4
    assert cfg["model.embed_dim"] == 16
    assert cfg["selector.enabled"] is True
    assert cfg["selector.k"] == 2
    assert cfg["selector.position"] == "last"
    assert cfg["data.num_ids"] == 32
    assert cfg["data.k_sig"] == 3
    assert cfg["schedule.lr_max"] == 8e-3
    assert cfg["train.epochs"] == 30
    assert cfg["ablate.k"] == [2, 3]
    assert cfg["ablate.positions"] == ["last"]


def test_comments_blank_lines_and_inline_comments():
    text = """
    # full-line comment
    seed = 3   # trailing comment

    model.embed_dim = 8
    """
    cfg = parse_config_text(text)
    assert cfg["seed"] == 3
    assert cfg["model.embed_dim"] == 8


def test_missing_required_seed():
    with pytest.raises(ConfigParseError, match="missing required key 'seed'"):
        parse_config_text("model.embed_dim = 8\n")


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigParseError, match=r"line 2: unknown key"):
        parse_config_text("seed = 0\nmodel.depth = 4\n")
    # `dtst ablate`'s grid has no heads axis
    with pytest.raises(ConfigParseError, match=r"line 2: unknown key 'ablate.heads'"):
        parse_config_text("seed = 0\nablate.heads = 2\n")


def test_duplicate_key_reports_line_number():
    with pytest.raises(ConfigParseError, match=r"line 3: duplicate key 'seed'"):
        parse_config_text("seed = 0\n\nseed = 1\n")


def test_bad_value_reports_line_number():
    with pytest.raises(ConfigParseError, match=r"line 1: bad value"):
        parse_config_text("seed = banana\n")
    with pytest.raises(ConfigParseError, match=r"line 2: bad value for 'selector.noise'"):
        parse_config_text("seed = 0\nselector.noise = yes\n")


def test_missing_equals_sign():
    with pytest.raises(ConfigParseError, match=r"line 1: expected 'key = value'"):
        parse_config_text("just some text\n")


def test_list_values_parse():
    cfg = parse_config_text(
        "seed = 0\nablate.k = 1,2,4\nablate.positions = last, second_to_last\n")
    assert cfg["ablate.k"] == [1, 2, 4]
    assert cfg["ablate.positions"] == ["last", "second_to_last"]


def test_semantic_validation_fires_at_load():
    # head count must divide embed_dim: caught before any run starts
    with pytest.raises(ConfigError):
        parse_config_text("seed = 0\nmodel.embed_dim = 9\n")
    with pytest.raises(ConfigError, match="ablate.positions"):
        parse_config_text("seed = 0\nablate.positions = middle\n")
    with pytest.raises(ConfigError, match="lr_max > LR_MIN"):
        parse_config_text("seed = 0\nschedule.lr_max = 1e-6\n")
    # checked before `embed_dim % num_heads`, which a zero head count would
    # turn into ZeroDivisionError
    for line in ("model.num_heads = 0", "model.num_heads = -2", "model.embed_dim = 0"):
        with pytest.raises(ConfigError, match="ModelConfig extents must be positive"):
            parse_config_text(f"seed = 0\nselector.enabled = false\n{line}\n")


@pytest.mark.parametrize("line", ["selector.temperature = 0.0", "selector.temperature = -1.0",
                                  "selector.heads = 0", "selector.heads = -1"])
@pytest.mark.parametrize("enabled", ["true", "false"])
def test_inert_selector_keys_still_reject_values_they_cannot_take(line, enabled):
    # selector.heads and selector.temperature have no effect, but a value a
    # head count or a temperature cannot take still fails at load, with the
    # selector on or off
    with pytest.raises(ConfigError, match=f"{line.split(' =')[0]} must be > 0"):
        parse_config_text(f"seed = 0\nselector.enabled = {enabled}\n{line}\n")


def test_every_float_key_rejects_non_finite_values():
    float_keys = [k for k, (parse, _, _) in config_mod._SCHEMA.items()
                  if parse is config_mod._float]
    assert "selector.temperature" in float_keys and "data.noise_std" in float_keys
    for key in float_keys:
        for text in ("nan", "inf", "-inf", "NaN", "1e999"):
            with pytest.raises(ConfigParseError, match=f"{key}.*finite"):
                parse_config_text(f"seed = 0\n{key} = {text}\n")


def test_second_to_last_needs_two_blocks():
    parse_config_text("seed = 0\nmodel.num_blocks = 2\nselector.position = second_to_last\n")
    with pytest.raises(ConfigError, match="num_blocks >= 2"):
        parse_config_text("seed = 0\nmodel.num_blocks = 1\nselector.position = second_to_last\n")
    with pytest.raises(ConfigError, match="ablate.positions"):
        parse_config_text("seed = 0\nmodel.num_blocks = 1\nselector.enabled = false\n"
                          "ablate.positions = last,second_to_last\n")


def test_format_config_round_trips():
    cfg = parse_config_text("seed = 5\nselector.k = 3\ndata.noise_std = 0.75\n")
    echoed = format_config(cfg)
    again = parse_config_text(echoed)
    assert again.values == cfg.values
    assert format_config(again) == echoed
    assert "seed = 5" in echoed
    assert "selector.k = 3" in echoed


def test_typed_subconfigs():
    cfg = parse_config_text("seed = 0\nselector.k = 3\nselector.temperature = 0.5\n")
    mc = cfg.model_config()
    sc = mc.selector
    assert sc.k == 3 and sc.noise_enabled is True
    assert cfg["selector.temperature"] == 0.5
    assert mc.embed_dim == 16 and mc.patch_grid == (4, 4)
    off, off_mc = cfg.ablation_cells()[0]  # `dtst ablate`'s no-selector cell
    assert off["selector.enabled"] is False and off_mc.selector is None

    disabled = parse_config_text("seed = 0\nselector.enabled = false\n")
    assert disabled.model_config().selector is None


def test_the_dataclass_defaults_are_the_config_defaults():
    # each setting has one default: a dataclass given only the fields with
    # no default (and the train split's sample seed) equals a minimal config's
    cfg = parse_config_text(MINIMAL)
    assert ModelConfig(num_identities=32, selector=SelectorConfig(k=2)) == cfg.model_config()
    assert GenConfig(sample_seed=1) == cfg.gen_config("train")


def test_gen_config_split_seeds():
    cfg = parse_config_text("seed = 10\n")
    train = cfg.gen_config("train")
    test = cfg.gen_config("test")
    assert train.seed == test.seed == 10  # shared prototypes
    assert train.sample_seed == 11 and test.sample_seed == 12
    assert train.samples_per_id_per_view == 8
    assert test.samples_per_id_per_view == 4
    with pytest.raises(ConfigError, match="unknown split"):
        cfg.gen_config("validation")


def test_ablation_grid_cell_limit():
    ks = ",".join(["2"] * 40)
    with pytest.raises(ConfigError, match="limit 64"):
        parse_config_text(f"seed = 0\nablate.k = {ks}\nablate.positions = last,last\n")


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 42\ntrain.epochs = 2\n")
    cfg = load_config(path)
    assert cfg["seed"] == 42
    assert cfg["train.epochs"] == 2


def test_experiment_config_validate_catches_bad_train_extents():
    cfg = parse_config_text("seed = 0\n")
    cfg.values["train.epochs"] = 0
    with pytest.raises(ConfigError, match="positive"):
        cfg.validate()


OVERSIZED = {
    "num_ids": "data.num_ids = 100000000000000000000\n",
    "grid": "model.patch_rows = 10000000000\nmodel.patch_cols = 10000000000\n",
}


@pytest.mark.parametrize("lines", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_an_array_beyond_numpys_index_range_fails_at_load(tmp_path, lines):
    path = tmp_path / "big.cfg"
    path.write_text("seed = 0\n" + lines)
    with pytest.raises(ConfigError, match="beyond numpy's index range") as info:
        load_config(path)
    for line in lines.splitlines():
        assert line.split(" =")[0] in str(info.value)

