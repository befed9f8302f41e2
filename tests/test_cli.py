"""End-to-end CLI runs on tiny configs, plus exit-code behavior."""

import json
import os

import numpy as np
import pytest

from dtst.cli import EXIT_OK, EXIT_RUN, EXIT_USAGE, main
from dtst.config import load_config
from dtst.evaluate import read_reports
from dtst.model import load_checkpoint, save_checkpoint
from dtst.tensor import Tensor
from dtst.train import read_log

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
    log = read_log(os.path.join(out, "train_log.csv"))
    assert len(log) == 2 * (32 // 4)  # epochs * (n // (P*K))
    params = load_checkpoint(os.path.join(out, "checkpoint.bin"))
    assert "patch_embed.w" in params


def test_eval_after_train(tiny_config, tmp_path):
    out = str(tmp_path / "run")
    assert run(["train", "--config", tiny_config, "--out", out]) == EXIT_OK
    assert run(["eval", "--config", tiny_config, "--out", out]) == EXIT_OK
    reports = read_reports(os.path.join(out, "report.jsonl"))
    assert [r.protocol for r in reports] == \
        ["ALL", "A<->A", "G<->G", "A<->G", "A->G", "G->A"]
    assert os.path.isfile(os.path.join(out, "embeddings.txt"))


def test_eval_with_baseline_comparison(tiny_config, tmp_path):
    main_out = str(tmp_path / "main")
    base_out = str(tmp_path / "base")
    assert run(["train", "--config", tiny_config, "--out", main_out]) == EXIT_OK

    base_cfg = tmp_path / "base.cfg"
    base_cfg.write_text(TINY + "selector.enabled = false\n")
    assert run(["train", "--config", str(base_cfg), "--out", base_out]) == EXIT_OK

    cmp_cfg = tmp_path / "cmp.cfg"
    cmp_cfg.write_text(
        TINY + f"eval.baseline_checkpoint = {base_out}/checkpoint.bin\n")
    assert run(["eval", "--config", str(cmp_cfg), "--out", main_out]) == EXIT_OK
    lines = [json.loads(l) for l in
             open(os.path.join(main_out, "comparison.jsonl"))]
    assert len(lines) == 6 * 3  # protocols x (main, baseline, difference)
    diff = [l for l in lines if l["variant"] == "difference"]
    main_recs = {l["protocol"]: l for l in lines if l["variant"] == "main"}
    base_recs = {l["protocol"]: l for l in lines if l["variant"] == "baseline"}
    for d in diff:
        want = main_recs[d["protocol"]]["rank1"] - base_recs[d["protocol"]]["rank1"]
        assert d["rank1"] == pytest.approx(want, abs=1e-12)


def test_ablate_writes_grid(tmp_path):
    cfg_path = tmp_path / "ab.cfg"
    cfg_path.write_text(TINY + "ablate.heads = 1,2\nablate.k = 2\n"
                        "ablate.positions = last\n")
    out = str(tmp_path / "run")
    assert run(["ablate", "--config", str(cfg_path), "--out", out]) == EXIT_OK
    lines = open(os.path.join(out, "ablate.csv")).read().splitlines()
    assert lines[0] == "heads,k,position,rank1,mAP,mINP"
    assert len(lines) == 3
    assert lines[1].startswith("1,2,last,")
    assert lines[2].startswith("2,2,last,")


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


def _write_version_1(path, arrays):
    """A checkpoint in the version 1 layout, which records no config."""
    with open(path, "wb") as f:
        f.write(b"dtst-checkpoint v1\n")
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
    _write_version_1(ckpt, load_checkpoint(ckpt))
    assert run(["eval", "--config", tiny_config, "--out", out]) == EXIT_RUN
    record = json.load(open(os.path.join(out, "error.json")))
    assert record["error"] == "DomainError"
    assert all(word in record["message"] for word in ("checkpoint.bin", "version 1", "retrain"))
    assert not os.path.exists(os.path.join(out, "report.jsonl"))


def test_eval_on_checkpoint_with_two_scorer_matrices_is_run_error(tiny_config, tmp_path):
    # checkpoints of the learned scorer hold one matrix selector.w, or
    # selector.wq and selector.wk before that; written here with the current
    # config line, so the parameter names are what eval rejects
    out = str(tmp_path / "run")
    assert run(["train", "--config", tiny_config, "--out", out]) == EXIT_OK
    ckpt = os.path.join(out, "checkpoint.bin")
    arrays = load_checkpoint(ckpt)
    eye = np.eye(arrays["patch_embed.w"].shape[1])
    for scorer in (["selector.w"], ["selector.wq", "selector.wk"]):
        params = {name: Tensor(a) for name, a in arrays.items()}
        params.update({name: Tensor(eye) for name in scorer})
        save_checkpoint(ckpt, params, load_config(tiny_config).model_config())
        assert run(["eval", "--config", tiny_config, "--out", out]) == EXIT_RUN
        record = json.load(open(os.path.join(out, "error.json")))
        assert record["error"] == "DomainError"
        assert all(f"'{name}'" in record["message"] for name in scorer)
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


def test_eval_rejects_a_baseline_checkpoint_trained_with_the_selector(tiny_config, tmp_path):
    out = str(tmp_path / "run")
    assert run(["train", "--config", tiny_config, "--out", out]) == EXIT_OK
    cmp_cfg = tmp_path / "cmp.cfg"
    cmp_cfg.write_text(TINY + f"eval.baseline_checkpoint = {out}/checkpoint.bin\n")
    assert run(["eval", "--config", str(cmp_cfg), "--out", out]) == EXIT_RUN
    record = json.load(open(os.path.join(out, "error.json")))
    assert record["error"] == "DomainError"
    assert "selector.enabled = true" in record["message"]
    assert not os.path.exists(os.path.join(out, "comparison.jsonl"))


def test_config_parse_error_is_usage_exit(tmp_path, capsys):
    cfg_path = tmp_path / "broken.cfg"
    cfg_path.write_text("seed = 0\nbogus.key = 1\n")
    code = run(["train", "--config", str(cfg_path)])
    assert code == EXIT_RUN  # DtstError from the parser surfaces as run error
    assert "unknown key" in capsys.readouterr().err


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
        calls.append(gen.sample_seed)
        return original(gen)

    monkeypatch.setattr(data_mod, "generate_dataset", counting)
    cfg_path = tmp_path / "ab.cfg"
    cfg_path.write_text(TINY + "ablate.heads = 1,2\nablate.k = 2\n"
                        "ablate.positions = last\n")
    assert run(["ablate", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == EXIT_OK
    assert sorted(calls) == [1, 2]  # the train split (seed + 1) and the test split


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
