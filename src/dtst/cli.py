"""Command-line entry point: train, eval, ablate, gradcheck.

Exit codes: 0 success, 1 usage error, 2 run error. Run errors also leave a
machine-readable record in <out>/error.json.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from itertools import product

from . import config as config_mod
from . import data as data_mod
from . import evaluate as eval_mod
from . import gradcheck as gc_mod
from . import model as model_mod
from . import train as train_mod
from .errors import DtstError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUN = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load(args):
    if not os.path.isfile(args.config):
        raise _UsageError(f"config file not found: {args.config}")
    cfg = config_mod.load_config(args.config)
    if args.seed is not None:
        cfg.values["seed"] = args.seed
    if args.out is not None:
        cfg.values["output_dir"] = args.out
    out = cfg.values["output_dir"]
    os.makedirs(out, exist_ok=True)
    return cfg, out


def _echo(cfg, out):
    with open(os.path.join(out, "effective_config.txt"), "w") as f:
        f.write(config_mod.format_config(cfg))


def _train_one(cfg, model_cfg, seed, dataset):
    """Train a fresh model on `dataset`, the config's train split; returns
    (params, log)."""
    params = model_mod.init_params(model_cfg, seed)
    log = train_mod.train_run(model_cfg, params, dataset,
                              cfg["schedule.lr_max"], cfg["schedule.lr_min"],
                              cfg.loss_weights(), cfg["train.epochs"],
                              cfg["train.batch_p"], cfg["train.batch_k"],
                              seed=seed, momentum=cfg["train.momentum"])
    return params, log


def cmd_train(cfg, out):
    _echo(cfg, out)
    model_cfg = cfg.model_config()
    dataset = data_mod.generate_dataset(cfg.gen_config("train"))
    params, log = _train_one(cfg, model_cfg, cfg["seed"], dataset)
    train_mod.write_log(os.path.join(out, "train_log.csv"), log)
    model_mod.save_checkpoint(os.path.join(out, "checkpoint.bin"), params, model_cfg)
    return EXIT_OK


def _evaluate_checkpoint(cfg, model_cfg, ckpt_path, samples):
    params = model_mod.init_params(model_cfg, cfg["seed"])
    model_mod.restore_params(params, model_mod.load_checkpoint(ckpt_path, model_cfg))
    meta, _, ids, views = eval_mod.embed_samples(model_cfg, params, samples)
    reports = [eval_mod.evaluate_protocol(meta, ids, views, proto,
                                          split_seed=cfg["eval.split_seed"])
               for proto in eval_mod.PROTOCOLS]
    return meta, ids, views, reports


def cmd_eval(cfg, out):
    _echo(cfg, out)
    model_cfg = cfg.model_config()
    ckpt = os.path.join(out, "checkpoint.bin")
    samples = data_mod.generate_dataset(cfg.gen_config("test"))
    meta, ids, views, reports = _evaluate_checkpoint(cfg, model_cfg, ckpt, samples)
    data_mod.export_embeddings(os.path.join(out, "embeddings.txt"), meta, ids, views)
    eval_mod.write_reports(os.path.join(out, "report.jsonl"), reports)
    baseline = cfg["eval.baseline_checkpoint"]
    if baseline:
        base_cfg = cfg.model_config(with_selector=False)
        _, _, _, base_reports = _evaluate_checkpoint(cfg, base_cfg, baseline, samples)
        with open(os.path.join(out, "comparison.jsonl"), "w") as f:
            for main, ref in zip(reports, base_reports):
                for variant, r in (("main", main), ("baseline", ref)):
                    f.write(json.dumps({"protocol": r.protocol, "variant": variant,
                                        "rank1": r.rank1, "mAP": r.mean_ap,
                                        "mINP": r.mean_inp}) + "\n")
                f.write(json.dumps({"protocol": main.protocol, "variant": "difference",
                                    "rank1": main.rank1 - ref.rank1,
                                    "mAP": main.mean_ap - ref.mean_ap,
                                    "mINP": main.mean_inp - ref.mean_inp}) + "\n")
    return EXIT_OK


def cmd_ablate(cfg, out):
    _echo(cfg, out)
    # the cells differ only in selector keys, so they share both splits
    train_set = data_mod.generate_dataset(cfg.gen_config("train"))
    samples = data_mod.generate_dataset(cfg.gen_config("test"))
    rows = []
    # deterministic grid order
    for heads, k, position in product(cfg["ablate.heads"], cfg["ablate.k"],
                                      cfg["ablate.positions"]):
        cell = config_mod.ExperimentConfig(values=dict(cfg.values))
        cell.values.update({"selector.enabled": True, "selector.heads": heads,
                            "selector.k": k, "selector.position": position})
        cell.validate()
        model_cfg = cell.model_config()
        params, _ = _train_one(cell, model_cfg, cell["seed"], train_set)
        meta, _, ids, views = eval_mod.embed_samples(model_cfg, params, samples)
        report = eval_mod.evaluate_protocol(meta, ids, views, eval_mod.PROTOCOL_AG,
                                            split_seed=cell["eval.split_seed"])
        rows.append((heads, k, position, report.rank1, report.mean_ap, report.mean_inp))
    with open(os.path.join(out, "ablate.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["heads", "k", "position", "rank1", "mAP", "mINP"])
        for heads, k, position, r1, mp, mi in rows:
            w.writerow([heads, k, position, repr(r1), repr(mp), repr(mi)])
    return EXIT_OK


def cmd_gradcheck(cfg, out):
    _echo(cfg, out)
    model_cfg = cfg.model_config()
    params = model_mod.init_params(model_cfg, cfg["seed"])
    samples = data_mod.generate_dataset(cfg.gen_config("train"))[:2]
    x, y, v = data_mod.batch_arrays(samples)
    results = gc_mod.check_model_gradients(model_cfg, params, x, y, v,
                                           cfg.loss_weights(), tolerance=1e-3,
                                           max_coords=5, coord_seed=cfg["seed"])
    lines = [f"{'parameter':32s} {'rel_err':>12s}  status"]
    for r in results:
        lines.append(f"{r.name:32s} {r.rel_err:12.3e}  {'pass' if r.ok else 'FAIL'}")
    table = "\n".join(lines) + "\n"
    with open(os.path.join(out, "gradcheck.txt"), "w") as f:
        f.write(table)
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
        p.add_argument("--out", default=None)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_dir = args.out  # where error.json goes if the config fails to load
    try:
        cfg, out_dir = _load(args)
        return _COMMANDS[args.command](cfg, out_dir)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DtstError as exc:
        record = {"error": type(exc).__name__, "message": str(exc),
                  "command": args.command}
        print(json.dumps(record), file=sys.stderr)
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, "error.json"), "w") as f:
                json.dump(record, f)
        return EXIT_RUN


if __name__ == "__main__":
    sys.exit(main())
