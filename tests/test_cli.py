"""End-to-end CLI runs on tiny configs, plus exit-code behavior."""

import base64
import json
import os
import types
import warnings

import numpy as np
import pytest

from dtst import evaluate
from dtst import tensor as T
from dtst.cli import EXIT_OK, EXIT_RUN, EXIT_USAGE, main
from dtst.config import load_config, parse_config_text
from dtst.data import batch_arrays, generate_dataset
from dtst.errors import ConfigError
from dtst.evaluate import embed_samples
from dtst.model import (VIEW_NAMES, init_params, load_checkpoint, restore_params,
                        save_checkpoint)
from dtst.tensor import Tensor

TINY = """
seed = 0
model.num_blocks = 1
model.embed_dim = 8
model.num_heads = 2
model.patch_rows = 2
model.patch_cols = 2
model.patch_dim = 3
selector.k = 2
selector.heads = 2
selector.noise = false
data.num_ids = 4
data.train_per_id_view = 4
data.test_per_id_view = 4
data.k_sig = 2
train.epochs = 2
train.batch_p = 2
train.batch_k = 2
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def run(args):
    return main(args)


def test_train_writes_artifacts(tiny_config, tmp_path):
    out = str(tmp_path / "run")
    assert run(["train", "--config", tiny_config, "--out", out]) == EXIT_OK
    assert os.path.isfile(os.path.join(out, "effective_config.txt"))
    log = open(os.path.join(out, "train_log.csv")).read().splitlines()
    assert log[0] == "step,lr,id_loss,view_loss,orth_loss,total"
    assert len(log) - 1 == 2 * (32 // 4)  # epochs * (n // (P*K))
    params = load_checkpoint(os.path.join(out, "checkpoint.bin"))
    assert "patch_embed.w" in params


def test_eval_after_train(tiny_config, tmp_path):
    out = str(tmp_path / "run")
    assert run(["train", "--config", tiny_config, "--out", out]) == EXIT_OK
    assert run(["eval", "--config", tiny_config, "--out", out]) == EXIT_OK
    reports = [json.loads(line) for line in open(os.path.join(out, "report.jsonl"))]
    assert [r["protocol"] for r in reports] == \
        ["ALL", "A<->A", "G<->G", "A<->G", "A->G", "G->A"]
    # the exported rows are exactly the embeddings of the saved checkpoint
    cfg = load_config(tiny_config)
    params = init_params(cfg.model_config(), 0)
    restore_params(params, load_checkpoint(os.path.join(out, "checkpoint.bin")))
    meta, _, ids, views = embed_samples(cfg.model_config(), params,
                                        generate_dataset(cfg.gen_config("test")))
    lines = open(os.path.join(out, "embeddings.txt"), encoding="ascii").read().splitlines()
    assert len(lines) == len(meta)
    for line, emb, y, v in zip(lines, meta, ids, views):
        fields = dict(part.split("=", 1) for part in line.split())
        assert (fields["id"], fields["view"]) == (str(y), VIEW_NAMES[v])
        assert np.frombuffer(base64.b64decode(fields["x"]), "<f8").tobytes() == emb.tobytes()


def test_eval_ranks_each_query_view_once(tiny_config, tmp_path, monkeypatch):
    # the six protocols share one ranking of every query in the whole
    # gallery split, made block by block in `rank_gallery`
    out = str(tmp_path / "run")
    assert run(["train", "--config", tiny_config, "--out", out]) == EXIT_OK
    similarities = []
    rank = evaluate.rank_gallery

    def counting(queries, query_ids, parts):
        similarities.append(len(queries) * sum(len(rows) for rows, _, _ in parts))
        return rank(queries, query_ids, parts)

    monkeypatch.setattr(evaluate, "rank_gallery", counting)
    assert run(["eval", "--config", tiny_config, "--out", out]) == EXIT_OK
    cfg = load_config(tiny_config)
    _, ids, views = batch_arrays(generate_dataset(cfg.gen_config("test")))
    q_mask, g_mask = evaluate.query_gallery_split(ids, views, cfg["eval.split_seed"])
    assert sum(similarities) == q_mask.sum() * g_mask.sum()


def test_ablate_writes_grid(tmp_path):
    cfg_path = tmp_path / "ab.cfg"
    cfg_path.write_text(TINY + "ablate.k = 1,2\nablate.positions = last\n")
    out = str(tmp_path / "run")
    assert run(["ablate", "--config", str(cfg_path), "--out", out]) == EXIT_OK
    lines = open(os.path.join(out, "ablate.csv")).read().splitlines()
    assert lines[0] == "k,position,rank1,mAP,mINP"
    assert len(lines) == 4
    assert lines[1].startswith("none,none,")
    assert lines[2].startswith("1,last,")
    assert lines[3].startswith("2,last,")


def test_ablate_no_selector_row_equals_a_no_selector_train_and_eval(tmp_path):
    # the selector-off cell trains and scores as `dtst train` then `dtst
    # eval` do with the selector off, at the same seed and split
    cfg_path = tmp_path / "ab.cfg"
    cfg_path.write_text(TINY + "ablate.k = 1\n")
    assert run(["ablate", "--config", str(cfg_path), "--out", str(tmp_path / "ab")]) == EXIT_OK
    off_path = tmp_path / "off.cfg"
    off_path.write_text(TINY + "selector.enabled = false\n")
    out = str(tmp_path / "off")
    assert run(["train", "--config", str(off_path), "--out", out]) == EXIT_OK
    assert run(["eval", "--config", str(off_path), "--out", out]) == EXIT_OK
    report = {r["protocol"]: r for r in map(json.loads, open(os.path.join(out, "report.jsonl")))}
    ag = report["A<->G"]
    row = open(tmp_path / "ab" / "ablate.csv").read().splitlines()[1]
    assert row == f"none,none,{ag['rank1']!r},{ag['mAP']!r},{ag['mINP']!r}"


def test_gradcheck_passes_on_tiny_model(tiny_config, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run(["gradcheck", "--config", tiny_config, "--out", out]) == EXIT_OK
    table = open(os.path.join(out, "gradcheck.txt")).read()
    assert "pass" in table and "FAIL" not in table


def test_missing_config_is_usage_error(tmp_path, capsys):
    code = run(["train", "--config", str(tmp_path / "nope.cfg")])
    assert code == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_bad_arguments_are_usage_errors():
    assert run(["train"]) == EXIT_USAGE          # missing --config
    assert run(["dance", "--config", "x"]) == EXIT_USAGE  # unknown command


def test_run_error_writes_error_json(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    # eval without a checkpoint present: DomainError -> exit 2 + error.json
    cfg_path.write_text(TINY)
    out = str(tmp_path / "run")
    code = run(["eval", "--config", str(cfg_path), "--out", out])
    assert code == EXIT_RUN
    record = json.load(open(os.path.join(out, "error.json")))
    assert record["command"] == "eval"
    assert record["error"]
    err = capsys.readouterr().err
    assert json.loads(err.strip())["command"] == "eval"


def test_eval_on_truncated_checkpoint_is_run_error(tiny_config, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run(["train", "--config", tiny_config, "--out", out]) == EXIT_OK
    ckpt = os.path.join(out, "checkpoint.bin")
    with open(ckpt, "rb") as f:
        blob = f.read()
    with open(ckpt, "wb") as f:
        f.write(blob[:-5])
    assert run(["eval", "--config", tiny_config, "--out", out]) == EXIT_RUN
    record = json.load(open(os.path.join(out, "error.json")))
    assert record["error"] == "DomainError"
    assert "checkpoint.bin" in record["message"]


def _write_by_hand(path, header, arrays):
    """A checkpoint of `header`'s lines and then `arrays`, written without
    `save_checkpoint`, which writes only the parameter set a config makes."""
    with open(path, "wb") as f:
        f.write(header)
        for name, a in arrays.items():
            f.write(" ".join([name, *map(str, a.shape)]).encode() + b"\n")
        f.write(b"end\n")
        for a in arrays.values():
            f.write(a.astype("<f8").tobytes())


def test_eval_rejects_a_version_1_checkpoint(tiny_config, tmp_path):
    # a version 1 file records no model config, so nothing could check it
    out = str(tmp_path / "run")
    assert run(["train", "--config", tiny_config, "--out", out]) == EXIT_OK
    ckpt = os.path.join(out, "checkpoint.bin")
    # the version 1 layout: no config line after the magic
    _write_by_hand(ckpt, b"dtst-checkpoint v1\n", load_checkpoint(ckpt))
    assert run(["eval", "--config", tiny_config, "--out", out]) == EXIT_RUN
    record = json.load(open(os.path.join(out, "error.json")))
    assert record["error"] == "DomainError"
    assert all(word in record["message"] for word in ("checkpoint.bin", "version 1", "retrain"))
    assert not os.path.exists(os.path.join(out, "report.jsonl"))


def _current_header(path):
    """The magic and config lines of the checkpoint at `path`."""
    with open(path, "rb") as f:
        return f.readline() + f.readline()


def test_eval_on_checkpoint_with_two_scorer_matrices_is_run_error(tiny_config, tmp_path):
    # checkpoints of the learned scorer hold one matrix selector.w, or
    # selector.wq and selector.wk before that; written here with the current
    # config line, so the parameter names are what eval rejects
    out = str(tmp_path / "run")
    assert run(["train", "--config", tiny_config, "--out", out]) == EXIT_OK
    ckpt = os.path.join(out, "checkpoint.bin")
    header, arrays = _current_header(ckpt), load_checkpoint(ckpt)
    eye = np.eye(arrays["patch_embed.w"].shape[1])
    for scorer in (["selector.w"], ["selector.wq", "selector.wk"]):
        _write_by_hand(ckpt, header, {**arrays, **{name: eye for name in scorer}})
        assert run(["eval", "--config", tiny_config, "--out", out]) == EXIT_RUN
        record = json.load(open(os.path.join(out, "error.json")))
        assert record["error"] == "DimensionError"
        assert all(f"'{name}'" in record["message"] for name in scorer)
        assert not os.path.exists(os.path.join(out, "report.jsonl"))


def _separate_qkv_layout(arrays):
    """The arrays under the names of the layout that kept Q, K and V as
    three weights and three biases, and the view tokens as two vectors."""
    old = {}
    for name, a in arrays.items():
        block, _, leaf = name.rpartition(".")
        if name == "view_tokens":
            old["view_token.aerial"], old["view_token.ground"] = a
        elif leaf in ("w_qkv", "b_qkv"):
            for part, third in zip("qkv", np.split(a, 3, axis=-1)):
                old[f"{block}.{leaf[0]}{part}"] = third
        elif leaf in ("w_o", "b_o"):
            old[f"{block}.{leaf[0]}o"] = a
        else:
            old[name] = a
    return old


def test_eval_rejects_a_checkpoint_in_the_separate_qkv_layout(tiny_config, tmp_path):
    out = str(tmp_path / "run")
    assert run(["train", "--config", tiny_config, "--out", out]) == EXIT_OK
    ckpt = os.path.join(out, "checkpoint.bin")
    old = _separate_qkv_layout(load_checkpoint(ckpt))
    assert {"view_token.aerial", "block0.attn.wq", "block0.attn.bo"} <= set(old)
    _write_by_hand(ckpt, _current_header(ckpt), old)
    assert run(["eval", "--config", tiny_config, "--out", out]) == EXIT_RUN
    record = json.load(open(os.path.join(out, "error.json")))
    assert record["error"] == "DimensionError"
    assert all(f"'{name}'" in record["message"]
               for name in ("view_tokens", "block0.attn.w_qkv", "view_token.aerial",
                            "block0.attn.wq"))
    assert not os.path.exists(os.path.join(out, "report.jsonl"))


@pytest.mark.parametrize("trained, evaluated", [
    ("selector.k = 2", "selector.k = 3"),
    ("selector.enabled = true", "selector.enabled = false"),
    ("selector.enabled = false", "selector.enabled = true"),
    ("model.num_heads = 2", "model.num_heads = 1"),
])
def test_eval_rejects_a_checkpoint_trained_under_another_model_config(
        tmp_path, trained, evaluated):
    def config(name, line):
        key = line.split(" =")[0]
        text = "\n".join(l for l in TINY.splitlines() if not l.startswith(key + " "))
        path = tmp_path / f"{name}.cfg"
        path.write_text(f"{text}\n{line}\n")
        return str(path)

    out = str(tmp_path / "run")
    assert run(["train", "--config", config("train", trained), "--out", out]) == EXIT_OK
    assert run(["eval", "--config", config("eval", evaluated), "--out", out]) == EXIT_RUN
    record = json.load(open(os.path.join(out, "error.json")))
    assert record["error"] == "DomainError"
    assert trained in record["message"] and evaluated in record["message"]
    assert not os.path.exists(os.path.join(out, "report.jsonl"))


def test_config_parse_error_is_usage_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # without --out, error.json goes to ./runs
    cfg_path = tmp_path / "broken.cfg"
    cfg_path.write_text("seed = 0\nbogus.key = 1\n")
    code = run(["train", "--config", str(cfg_path)])
    assert code == EXIT_RUN  # DtstError from the parser surfaces as run error
    assert "unknown key" in capsys.readouterr().err


def test_a_config_that_fails_to_load_without_out_leaves_error_json_in_runs(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "broken.cfg").write_text("seed = 0\nbogus.key = 1\n")
    assert run(["train", "--config", "broken.cfg"]) == EXIT_RUN
    record = json.load(open(tmp_path / "runs" / "error.json"))
    assert record["error"] == "ConfigParseError" and "unknown key" in record["message"]


def test_output_dir_is_no_config_key(tmp_path):
    cfg_path = tmp_path / "out.cfg"
    cfg_path.write_text(TINY + f"output_dir = {tmp_path / 'elsewhere'}\n")
    out = tmp_path / "run"
    assert run(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_RUN
    record = json.load(open(out / "error.json"))
    assert record["error"] == "ConfigParseError"
    assert "unknown key 'output_dir'" in record["message"]
    assert not (tmp_path / "elsewhere").exists()
    assert not (out / "train_log.csv").exists()


def test_effective_config_does_not_depend_on_out(tiny_config, tmp_path):
    echoes = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["train", "--config", tiny_config, "--out", str(out)]) == EXIT_OK
        echoes.append((out / "effective_config.txt").read_bytes())
    assert echoes[0] == echoes[1]
    assert str(tmp_path).encode() not in echoes[0]


@pytest.mark.parametrize("line", ["selector.temperature = inf",
                                  "selector.temperature = nan",
                                  "data.noise_std = nan"])
def test_non_finite_config_value_fails_train_at_load(tmp_path, line, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(TINY + line + "\n")
    out = tmp_path / "run"
    assert run(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_RUN
    record = json.load(open(out / "error.json"))
    assert record["error"] == "ConfigParseError"
    assert line.split(" =")[0] in record["message"] and "finite" in record["message"]
    assert not (out / "train_log.csv").exists()


@pytest.mark.parametrize("command, line", [("train", "seed = -3"),
                                           ("eval", "eval.split_seed = -1")])
def test_negative_seed_in_config_is_a_config_error(tiny_config, tmp_path, command, line):
    key = line.split(" =")[0]
    text = "\n".join(l for l in TINY.splitlines() if not l.startswith(key + " "))
    cfg_path = tmp_path / "neg.cfg"
    cfg_path.write_text(f"{text}\n{line}\n")
    out = tmp_path / "run"
    if command == "eval":  # a checkpoint to evaluate, so only the seed can fail
        assert run(["train", "--config", tiny_config, "--out", str(out)]) == EXIT_OK
    assert run([command, "--config", str(cfg_path), "--out", str(out)]) == EXIT_RUN
    record = json.load(open(out / "error.json"))
    assert record["error"] == "ConfigError"
    assert key in record["message"] and ">= 0" in record["message"]


def test_negative_seed_override_is_validated(tiny_config, tmp_path):
    out = tmp_path / "run"
    assert run(["train", "--config", tiny_config, "--seed", "-1",
                "--out", str(out)]) == EXIT_RUN
    record = json.load(open(out / "error.json"))
    assert record["error"] == "ConfigError" and "seed" in record["message"]
    assert not (out / "train_log.csv").exists()


def test_out_naming_a_file_is_usage_error(tiny_config, tmp_path, capsys):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("keep me\n")
    code = run(["train", "--config", tiny_config, "--out", str(not_a_dir)])
    assert code == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert not_a_dir.read_text() == "keep me\n"


def test_non_utf8_config_is_a_parse_error(tmp_path):
    cfg_path = tmp_path / "latin1.cfg"
    cfg_path.write_bytes(TINY.encode() + b"# caf\xe9\n")
    out = tmp_path / "run"
    assert run(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_RUN
    record = json.load(open(out / "error.json"))
    assert record["error"] == "ConfigParseError"
    offset = len(TINY.encode()) + len("# caf")
    assert "latin1.cfg" in record["message"] and f"byte offset {offset}" in record["message"]


def _permission_denied(path, *args, **kwargs):
    raise PermissionError(13, "Permission denied", str(path))


def test_unreadable_config_is_a_parse_error(tiny_config, tmp_path, monkeypatch):
    from dtst import config as config_mod

    monkeypatch.setattr(config_mod, "open", _permission_denied, raising=False)
    out = tmp_path / "run"
    assert run(["train", "--config", tiny_config, "--out", str(out)]) == EXIT_RUN
    record = json.load(open(out / "error.json"))
    assert record["error"] == "ConfigParseError"
    assert "tiny.cfg" in record["message"] and "Permission denied" in record["message"]


def test_unreadable_checkpoint_is_a_run_error(tiny_config, tmp_path, monkeypatch):
    from dtst import model as model_mod

    def checkpoint_read_denied(path, mode="r", *args, **kwargs):
        if os.path.basename(path) == "checkpoint.bin" and "r" in mode:
            _permission_denied(path)
        return open(path, mode, *args, **kwargs)

    out = tmp_path / "run"
    assert run(["train", "--config", tiny_config, "--out", str(out)]) == EXIT_OK
    monkeypatch.setattr(model_mod, "open", checkpoint_read_denied, raising=False)
    assert run(["eval", "--config", tiny_config, "--out", str(out)]) == EXIT_RUN
    record = json.load(open(out / "error.json"))
    assert record["error"] == "DomainError"
    assert "checkpoint.bin" in record["message"] and "Permission denied" in record["message"]
    assert not (out / "report.jsonl").exists()


def test_a_successful_command_removes_an_earlier_error_json(tiny_config, tmp_path):
    out = tmp_path / "run"
    assert run(["eval", "--config", tiny_config, "--out", str(out)]) == EXIT_RUN
    assert json.load(open(out / "error.json"))["error"] == "DomainError"
    assert run(["train", "--config", tiny_config, "--out", str(out)]) == EXIT_OK
    assert run(["eval", "--config", tiny_config, "--out", str(out)]) == EXIT_OK
    assert not (out / "error.json").exists()


def test_eval_after_a_failed_train_finds_no_checkpoint(tiny_config, tmp_path, capsys):
    # the echo covers no schedule key, so an earlier run's checkpoint would
    # pass it and be reported as the diverged run's
    diverging = tmp_path / "diverging.cfg"
    diverging.write_text(TINY + "schedule.lr_max = 50.0\n")
    out = tmp_path / "run"
    assert run(["train", "--config", tiny_config, "--out", str(out)]) == EXIT_OK
    assert run(["train", "--config", str(diverging), "--out", str(out)]) == EXIT_RUN
    assert _stderr_record(capsys)["error"] == "NumericError"
    assert not (out / "checkpoint.bin").exists() and not (out / "train_log.csv").exists()
    assert run(["eval", "--config", str(diverging), "--out", str(out)]) == EXIT_RUN
    record = _stderr_record(capsys)
    assert record["error"] == "DomainError"
    assert record["message"].startswith("checkpoint file not found")


def test_a_second_eval_writes_each_artifact_as_a_new_file(tiny_config, tmp_path):
    out = tmp_path / "run"
    assert run(["train", "--config", tiny_config, "--out", str(out)]) == EXIT_OK
    names = ["effective_config.txt", "embeddings.txt", "report.jsonl"]
    runs = []
    for _ in range(2):
        assert run(["eval", "--config", tiny_config, "--out", str(out)]) == EXIT_OK
        runs.append({name: ((out / name).stat().st_ino, (out / name).read_bytes())
                     for name in names})
    for name in names:
        (ino1, bytes1), (ino2, bytes2) = runs[0][name], runs[1][name]
        assert ino1 != ino2 and bytes1 == bytes2, name
    assert not [p.name for p in out.iterdir() if p.suffix == ".tmp"]


def test_a_report_write_that_fails_partway_keeps_the_earlier_file(tmp_path):
    report = dict(protocol="ALL", rank1=0.5, mean_ap=0.25, mean_inp=0.125, num_queries=8,
                  num_excluded=0)
    path = tmp_path / "report.jsonl"
    evaluate.write_reports(path, [types.SimpleNamespace(**report)] * 2)
    before = path.read_bytes()
    # the new first record differs, the second cannot be written
    first = types.SimpleNamespace(**{**report, "rank1": 0.75})
    second = types.SimpleNamespace(**{**report, "rank1": object()})
    with pytest.raises(TypeError, match="not JSON serializable"):
        evaluate.write_reports(path, [first, second])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.jsonl"]


def test_selector_heads_and_temperature_change_no_noisy_training(tmp_path):
    # both keys are accepted and inert: with Gumbel noise on, training writes
    # the same bytes whatever their values
    artifacts = set()
    for line in ("selector.heads = 1", "selector.heads = 8",
                 "selector.temperature = 0.5", "selector.temperature = 2.0"):
        key = line.split(" =")[0]
        text = "\n".join(l for l in TINY.splitlines()
                         if not l.startswith((key + " ", "selector.noise ")))
        cfg_path = tmp_path / "noisy.cfg"
        cfg_path.write_text(f"{text}\nselector.noise = true\n{line}\n")
        out = tmp_path / line.replace(" = ", "_")
        assert run(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        artifacts.add(((out / "train_log.csv").read_bytes(),
                       (out / "checkpoint.bin").read_bytes()))
    assert len(artifacts) == 1


def test_seed_override_changes_results(tiny_config, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert run(["train", "--config", tiny_config, "--out", out_a]) == EXIT_OK
    assert run(["train", "--config", tiny_config, "--seed", "1",
                "--out", out_b]) == EXIT_OK
    pa = load_checkpoint(os.path.join(out_a, "checkpoint.bin"))
    pb = load_checkpoint(os.path.join(out_b, "checkpoint.bin"))
    assert not np.array_equal(pa["patch_embed.w"], pb["patch_embed.w"])
    # and the echoed config records the override
    echoed = open(os.path.join(out_b, "effective_config.txt")).read()
    assert "seed = 1" in echoed


def test_ablate_generates_each_split_once(tmp_path, monkeypatch):
    from dtst import data as data_mod

    calls = []
    original = data_mod.generate_dataset

    def counting(gen):
        calls.append(gen.split)
        return original(gen)

    monkeypatch.setattr(data_mod, "generate_dataset", counting)
    cfg_path = tmp_path / "ab.cfg"
    cfg_path.write_text(TINY + "ablate.k = 1,2\nablate.positions = last\n")
    assert run(["ablate", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == EXIT_OK
    assert sorted(calls) == ["test", "train"]


def test_ablate_cell_beyond_the_grid_fails_at_load(tmp_path, monkeypatch):
    # K = 9 exceeds the 2x2 grid's 4 patches: the config fails to load, so
    # the K = 2 cell before it never trains
    from dtst import train as train_mod

    text = TINY + "ablate.k = 2,9\n"
    with pytest.raises(ConfigError, match="ablate.k = 9, ablate.positions = last"):
        parse_config_text(text)
    calls = []
    original = train_mod.train_run

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(train_mod, "train_run", counting)
    cfg_path = tmp_path / "ab.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "run"
    assert run(["ablate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_RUN
    record = json.load(open(out / "error.json"))
    assert record["error"] == "ConfigError" and "ablate.k = 9" in record["message"]
    assert calls == []
    assert not (out / "ablate.csv").exists()


def test_overflow_in_training_is_a_numeric_error(tmp_path):
    # numpy's overflow is raised, not warned: no RuntimeWarning comes first
    cfg_path = tmp_path / "lr.cfg"
    cfg_path.write_text(TINY + "schedule.lr_max = 1e300\n")
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_RUN
    record = json.load(open(out / "error.json"))
    assert record["error"] == "NumericError" and "overflow" in record["message"]
    assert record["message"].startswith("step ")
    assert not (out / "checkpoint.bin").exists()


WIDE = """
seed = 0
model.num_blocks = 2
model.embed_dim = 32
model.num_heads = 4
model.patch_rows = 8
model.patch_cols = 8
model.patch_dim = 8
selector.enabled = false
data.num_ids = 8
data.train_per_id_view = 4
data.test_per_id_view = 2
data.k_sig = 8
train.epochs = 1
train.batch_p = 8
train.batch_k = 4
"""


def test_overflow_in_a_training_on_several_tiles_is_a_numeric_error(tmp_path):
    # the twin of the test above on arrays beyond one tile, whose tile
    # loops may run on two threads: a d = 32, 8x8-grid step's first block.
    # At this rate the overflow comes in the second step's attention tiles
    # (at 1e300 it comes before them, in a product of the same step)
    b, t, d, heads = 32, 66, 32, 4
    assert len(T._row_tiles(b, heads * t * t)) > 1
    assert len(T._row_tiles(b * t, 4 * d, min_rows=2)) > 1
    cfg_path = tmp_path / "wide.cfg"
    cfg_path.write_text(WIDE + "schedule.lr_max = 1e100\n")
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_RUN
    record = json.load(open(out / "error.json"))
    assert record["error"] == "NumericError" and "overflow" in record["message"]
    assert record["message"].startswith("step ")
    assert not (out / "checkpoint.bin").exists()


def test_eval_on_a_checkpoint_that_overflows_is_a_numeric_error(tiny_config, tmp_path):
    # with every weight matrix scaled by 1e120 the MLP overflows; a run that
    # went on would rank embeddings that no longer tell identities apart
    out = str(tmp_path / "run")
    assert run(["train", "--config", tiny_config, "--out", out]) == EXIT_OK
    ckpt = os.path.join(out, "checkpoint.bin")
    params = {name: Tensor(a * 1e120 if a.ndim == 2 else a)
              for name, a in load_checkpoint(ckpt).items()}
    save_checkpoint(ckpt, params, load_config(tiny_config).model_config())
    assert run(["eval", "--config", tiny_config, "--out", out]) == EXIT_RUN
    record = json.load(open(os.path.join(out, "error.json")))
    assert record["error"] == "NumericError" and "overflow" in record["message"]
    assert not os.path.exists(os.path.join(out, "report.jsonl"))


def test_eval_of_identical_embeddings_is_a_numeric_error(tiny_config, tmp_path):
    # a meta token of 1e120 swamps every other slot: the embeddings are all
    # one row (finite, no overflow), which would rank in gallery order
    out = str(tmp_path / "run")
    assert run(["train", "--config", tiny_config, "--out", out]) == EXIT_OK
    ckpt = os.path.join(out, "checkpoint.bin")
    arrays = load_checkpoint(ckpt)
    arrays["meta_token"] = arrays["meta_token"] * 1e120
    save_checkpoint(ckpt, {name: Tensor(a) for name, a in arrays.items()},
                    load_config(tiny_config).model_config())
    assert run(["eval", "--config", tiny_config, "--out", out]) == EXIT_RUN
    record = json.load(open(os.path.join(out, "error.json")))
    assert record["error"] == "NumericError" and "identical" in record["message"]
    assert not os.path.exists(os.path.join(out, "report.jsonl"))


def _stderr_record(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


@pytest.mark.parametrize("command, blocker", [
    ("train", "effective_config.txt"), ("train", "train_log.csv"),
    ("train", "checkpoint.bin"), ("train", "checkpoint.bin.tmp"),
    ("eval", "embeddings.txt"), ("eval", "report.jsonl")])
def test_an_artifact_path_taken_by_a_directory_is_a_resource_error(
        tiny_config, tmp_path, capsys, command, blocker):
    out = tmp_path / "run"
    if command == "eval":
        assert run(["train", "--config", tiny_config, "--out", str(out)]) == EXIT_OK
    (out / blocker).mkdir(parents=True)
    assert run([command, "--config", tiny_config, "--out", str(out)]) == EXIT_RUN
    record = _stderr_record(capsys)
    assert record["error"] == "ResourceError" and blocker in record["message"]
    assert json.load(open(out / "error.json")) == record
    assert (out / blocker).is_dir()  # the blocker is left as it was
    assert not (out / "checkpoint.bin.tmp").is_file()


def test_an_allocation_failure_is_a_resource_error(tiny_config, tmp_path, capsys,
                                                    monkeypatch):
    # raised, not provoked: a real oversized allocation may page in memory
    # instead of failing when the system overcommits
    from dtst import model as model_mod

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 596. GiB")

    monkeypatch.setattr(model_mod, "init_params", out_of_memory)
    out = tmp_path / "run"
    assert run(["train", "--config", tiny_config, "--out", str(out)]) == EXIT_RUN
    record = _stderr_record(capsys)
    assert record == {"error": "ResourceError", "message": "Unable to allocate 596. GiB",
                      "command": "train"}
    assert json.load(open(out / "error.json")) == record


def test_an_unwritable_error_json_leaves_the_stderr_record(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    (out / "error.json").mkdir(parents=True)
    (out / "train_log.csv").mkdir()
    assert run(["train", "--config", tiny_config, "--out", str(out)]) == EXIT_RUN
    record = _stderr_record(capsys)
    assert record["error"] == "ResourceError" and "train_log.csv" in record["message"]
    assert (out / "error.json").is_dir()


BENCHMARK_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.cfg")


def _benchmark_variant(tmp_path, name, **replacements):
    """configs/benchmark.cfg with whole `key = value` lines replaced."""
    lines = []
    for line in open(BENCHMARK_CFG).read().splitlines():
        key = line.split("=", 1)[0].strip()
        lines.append(f"{key} = {replacements[key]}" if key in replacements else line)
    path = tmp_path / f"{name}.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_second_to_last_selection_changes_training(tmp_path):
    runs = {}
    for name, change in (("second_to_last", {"selector.position": "second_to_last"}),
                         ("no_selector", {"selector.enabled": "false"})):
        cfg = _benchmark_variant(tmp_path, name, **{"train.epochs": 2}, **change)
        out = str(tmp_path / name)
        assert run(["train", "--config", cfg, "--out", out]) == EXIT_OK
        runs[name] = out
    logs = [open(os.path.join(runs[n], "train_log.csv")).read() for n in runs]
    assert logs[0] != logs[1]


@pytest.mark.parametrize("lines", [
    "data.num_ids = 100000000000000000000",
    "model.patch_rows = 10000000000\nmodel.patch_cols = 10000000000",
])
def test_an_oversized_extent_is_a_config_error(tmp_path, monkeypatch, lines):
    def no_data(*args):
        raise AssertionError("the config loaded; a split is being generated")

    monkeypatch.setattr("dtst.data.generate_dataset", no_data)
    keys = [line.split(" =")[0] for line in lines.splitlines()]
    text = "\n".join(l for l in TINY.splitlines() if l.split(" =")[0] not in keys)
    cfg_path = tmp_path / "big.cfg"
    cfg_path.write_text(f"{text}\n{lines}\n")
    out = tmp_path / "run"
    assert run(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_RUN
    record = json.load(open(out / "error.json"))
    assert record["error"] == "ConfigError"
    assert all(key in record["message"] for key in keys)
    assert not (out / "train_log.csv").exists()
