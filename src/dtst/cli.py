"""Command-line entry point: train, eval, ablate, gradcheck.

Exit codes: 0 success, 1 usage error, 2 run error. A command writes only
into `--out` (default `runs`), which it makes before the config loads, so
every run error also leaves a machine-readable record in <out>/error.json.
Every file is written as a new one (`model.write_artifact`). A command first
removes an earlier error.json, and `train` an earlier checkpoint and log.
A command runs with numpy's overflow and invalid-operation errors raised;
either is a `NumericError` run error. An `OSError` or `MemoryError` (an
artifact that cannot be written, an array that cannot be allocated) is a
`ResourceError` run error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import config as config_mod
from . import data as data_mod
from . import evaluate as eval_mod
from . import gradcheck as gc_mod
from . import model as model_mod
from . import train as train_mod
from .errors import DtstError, NumericError, ResourceError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUN = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load(args):
    """Make the run directory, before the config loads so that error.json
    has a home; then load the config, apply `--seed` and echo the result
    there. Returns the config."""
    if not os.path.isfile(args.config):
        raise _UsageError(f"config file not found: {args.config}")
    out = args.out
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise _UsageError(f"cannot make output directory {out}: {exc.strerror}")
    model_mod.remove_artifact(os.path.join(out, "error.json"))  # an earlier failure's
    cfg = config_mod.load_config(args.config)
    if args.seed is not None:
        cfg.values["seed"] = args.seed
        cfg.validate()
    model_mod.write_artifact(os.path.join(out, "effective_config.txt"),
                             [config_mod.format_config(cfg)])
    return cfg


def _train_one(cfg, model_cfg, seed, dataset):
    """Train a fresh model on `dataset`, the config's train split; returns
    (params, log)."""
    params = model_mod.init_params(model_cfg, seed)
    log = train_mod.train_run(model_cfg, params, dataset, cfg["schedule.lr_max"],
                              cfg["train.epochs"], cfg["train.batch_p"],
                              cfg["train.batch_k"], seed=seed)
    return params, log


def cmd_train(cfg, out):
    for name in ("checkpoint.bin", "train_log.csv"):  # no eval may read an earlier run's
        model_mod.remove_artifact(os.path.join(out, name))
    model_cfg = cfg.model_config()
    dataset = data_mod.generate_dataset(cfg.gen_config("train"))
    params, log = _train_one(cfg, model_cfg, cfg["seed"], dataset)
    train_mod.write_log(os.path.join(out, "train_log.csv"), log)
    model_mod.save_checkpoint(os.path.join(out, "checkpoint.bin"), params, model_cfg)
    return EXIT_OK


def cmd_eval(cfg, out):
    model_cfg = cfg.model_config()
    samples = data_mod.generate_dataset(cfg.gen_config("test"))
    params = model_mod.init_params(model_cfg, cfg["seed"])
    model_mod.restore_params(params, model_mod.load_checkpoint(
        os.path.join(out, "checkpoint.bin"), model_cfg))
    meta, _, ids, views = eval_mod.embed_samples(model_cfg, params, samples)
    shared = eval_mod.SharedScoring()  # filled by the calls, as they need it
    reports = [eval_mod.evaluate_protocol(meta, ids, views, proto,
                                          split_seed=cfg["eval.split_seed"], shared=shared)
               for proto in eval_mod.PROTOCOLS]
    data_mod.export_embeddings(os.path.join(out, "embeddings.txt"), meta, ids, views)
    eval_mod.write_reports(os.path.join(out, "report.jsonl"), reports)
    return EXIT_OK


def cmd_ablate(cfg, out):
    # the cells differ only in selector keys, so they share both splits
    train_set = data_mod.generate_dataset(cfg.gen_config("train"))
    samples = data_mod.generate_dataset(cfg.gen_config("test"))
    rows = []
    for cell, model_cfg in cfg.ablation_cells():
        params, _ = _train_one(cell, model_cfg, cell["seed"], train_set)
        meta, _, ids, views = eval_mod.embed_samples(model_cfg, params, samples)
        report = eval_mod.evaluate_protocol(meta, ids, views, eval_mod.PROTOCOL_AG,
                                            split_seed=cell["eval.split_seed"])
        k, position = ((cell["selector.k"], cell["selector.position"])
                       if cell["selector.enabled"] else ("none", "none"))
        rows.append(f"{k},{position},{report.rank1!r},{report.mean_ap!r},{report.mean_inp!r}\r\n")
    model_mod.write_artifact(os.path.join(out, "ablate.csv"),
                             ["k,position,rank1,mAP,mINP\r\n", *rows])
    return EXIT_OK


def cmd_gradcheck(cfg, out):
    model_cfg = cfg.model_config()
    params = model_mod.init_params(model_cfg, cfg["seed"])
    samples = data_mod.generate_dataset(cfg.gen_config("train"))[:2]
    x, y, v = data_mod.batch_arrays(samples)
    results = gc_mod.check_model_gradients(model_cfg, params, x, y, v, max_coords=5,
                                           coord_seed=cfg["seed"])
    lines = [f"{'parameter':32s} {'rel_err':>12s}  status"]
    for r in results:
        lines.append(f"{r.name:32s} {r.rel_err:12.3e}  {'pass' if r.ok else 'FAIL'}")
    table = "\n".join(lines) + "\n"
    model_mod.write_artifact(os.path.join(out, "gradcheck.txt"), [table])
    print(table, end="")
    return EXIT_OK if all(r.ok for r in results) else EXIT_RUN


_COMMANDS = {"train": cmd_train, "eval": cmd_eval,
             "ablate": cmd_ablate, "gradcheck": cmd_gradcheck}


def main(argv=None) -> int:
    parser = _Parser(prog="dtst", description="token-selective re-id experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="runs")
    try:
        args = parser.parse_args(argv)
        with np.errstate(over="raise", invalid="raise"):
            return _COMMANDS[args.command](_load(args), args.out)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DtstError, FloatingPointError, OSError, MemoryError) as exc:
        error = (type(exc) if isinstance(exc, DtstError) else
                 NumericError if isinstance(exc, FloatingPointError) else ResourceError)
        record = {"error": error.__name__, "message": str(exc),
                  "command": args.command}
        print(json.dumps(record), file=sys.stderr)
        out = args.out  # _load made it before anything could fail
        try:
            model_mod.write_artifact(os.path.join(out, "error.json"), [json.dumps(record)])
        except OSError:
            pass  # the record on stderr stands
        return EXIT_RUN


if __name__ == "__main__":
    sys.exit(main())
