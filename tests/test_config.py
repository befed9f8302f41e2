"""Config parsing: defaults, validation, error line numbers, round-trips."""

import pytest

from dtst import config as config_mod
from dtst.config import format_config, load_config, parse_config_text
from dtst.errors import ConfigError, ConfigParseError

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
    assert cfg["schedule.lr_min"] == 1.6e-6
    assert cfg["train.epochs"] == 30
    assert cfg["loss.orth_weight"] == 3.0
    assert cfg["ablate.heads"] == [2, 8]


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
        "seed = 0\nablate.heads = 1,2,4\nablate.positions = last, second_to_last\n")
    assert cfg["ablate.heads"] == [1, 2, 4]
    assert cfg["ablate.positions"] == ["last", "second_to_last"]


def test_semantic_validation_fires_at_load():
    # head count must divide embed_dim: caught before any run starts
    with pytest.raises(ConfigError):
        parse_config_text("seed = 0\nmodel.embed_dim = 9\n")
    with pytest.raises(ConfigError, match="ablate.positions"):
        parse_config_text("seed = 0\nablate.positions = middle\n")
    for momentum in ("1.5", "1.0", "-0.1"):
        with pytest.raises(ConfigError, match="momentum"):
            parse_config_text(f"seed = 0\ntrain.momentum = {momentum}\n")
    parse_config_text("seed = 0\ntrain.momentum = 0.0\n")
    # selector.temperature has no effect, but a value a temperature cannot
    # take still fails at load
    for temperature in ("0.0", "-1.0"):
        with pytest.raises(ConfigError, match="selector.temperature must be > 0"):
            parse_config_text(f"seed = 0\nselector.temperature = {temperature}\n")


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
    sc = cfg.selector_config()
    assert sc.k == 3 and sc.noise_enabled is True
    assert cfg["selector.temperature"] == 0.5
    mc = cfg.model_config()
    assert mc.selector is sc or mc.selector == sc
    assert mc.embed_dim == 16 and mc.patch_grid == (4, 4)
    assert cfg.model_config(with_selector=False).selector is None

    disabled = parse_config_text("seed = 0\nselector.enabled = false\n")
    assert disabled.selector_config() is None
    assert disabled.model_config().selector is None


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
    heads = ",".join(["2"] * 40)
    with pytest.raises(ConfigError, match="limit 64"):
        parse_config_text(f"seed = 0\nablate.heads = {heads}\nablate.k = 1,2\n")


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
