"""Correctness checks on one train+eval round's outputs.

None of them compares against a stored copy of earlier output: each
recomputes a number the program wrote, or tests a property that must hold
for any correct run.
"""

from __future__ import annotations

import base64
import csv
import json
import os

import numpy as np

import oracle

METRIC_TOL = 1e-12
EMBED_RTOL = 1e-9
SUBSET = 32


def read_embeddings(path):
    """(embeddings [N, d], ids [N], views [N]) from an embeddings.txt."""
    view_ids = {"aerial": oracle.AERIAL, "ground": oracle.GROUND}
    embs, ids, views = [], [], []
    with open(path, encoding="ascii") as f:
        for line in f:
            fields = dict(part.split("=", 1) for part in line.split())
            embs.append(np.frombuffer(base64.b64decode(fields["x"]), dtype="<f8"))
            ids.append(int(fields["id"]))
            views.append(view_ids[fields["view"]])
    return np.stack(embs), np.array(ids), np.array(views)


def read_report(path):
    with open(path) as f:
        return {rec["protocol"]: rec for rec in map(json.loads, f)}


def read_losses(path):
    with open(path, newline="") as f:
        return [float(row["total"]) for row in csv.DictReader(f)]


def _trained_params(dtst, model_cfg, seed, ckpt):
    params = dtst.model.init_params(model_cfg, seed)
    dtst.model.restore_params(params, dtst.model.load_checkpoint(ckpt))
    return params


def run_checks(dtst, cfg, seed, out_dir, test, trained, loaded, steps_per_epoch,
               baseline=True):
    """Checks on the round trained and evaluated with dtst seed `seed` into
    `out_dir`. `trained` is the parameter dict train_run left, `loaded` the
    arrays `dtst eval` read back; `baseline` adds the comparison with the
    untrained parameters. Returns {check name: (ok, detail)}."""
    results = {}
    model_cfg = cfg.model_config()
    split_seed = cfg["eval.split_seed"]

    emb, ids, views = read_embeddings(os.path.join(out_dir, "embeddings.txt"))
    report = read_report(os.path.join(out_dir, "report.jsonl"))
    expected = oracle.score_all(emb, ids, views, split_seed)
    worst = max(abs(report[p][k] - expected[p][k])
                for p in expected for k in ("rank1", "mAP", "mINP"))
    counts = all(report[p][k] == expected[p][k] for p in expected
                 for k in ("num_queries", "num_excluded"))
    results["oracle_metrics"] = (worst <= METRIC_TOL and counts and len(report) == 6,
                                 f"max |report - oracle| {worst:.2e}, counts match {counts}")

    same = (list(trained) == list(loaded) and all(
        trained[k].shape == loaded[k].shape
        and trained[k].tobytes() == loaded[k].tobytes() for k in trained))
    results["checkpoint_roundtrip"] = (same, f"{len(trained)} parameters bit-identical {same}")

    losses = read_losses(os.path.join(out_dir, "train_log.csv"))
    first = float(np.mean(losses[:steps_per_epoch]))
    last = float(np.mean(losses[-steps_per_epoch:]))
    results["loss_decreases"] = (last < first, f"first epoch {first:.4f}, last epoch {last:.4f}")

    params = _trained_params(dtst, model_cfg, seed, os.path.join(out_dir, "checkpoint.bin"))
    subset = test[::max(1, len(test) // SUBSET)][:SUBSET]
    one = dtst.evaluate.embed_samples(model_cfg, params, subset, batch_size=1)[0]
    batched = dtst.evaluate.embed_samples(model_cfg, params, subset, batch_size=64)[0]
    close = np.allclose(one, batched, rtol=EMBED_RTOL, atol=EMBED_RTOL)
    results["batch_invariance"] = (close, f"max |single - batched| {np.abs(one - batched).max():.2e}")

    k = model_cfg.selector.k
    m = model_cfg.num_patches
    x, _, v = dtst.data.batch_arrays(subset)
    rows = []
    for training in (False, True):
        out = dtst.model.model_forward(model_cfg, params, x, v, training=training,
                                       rng=np.random.default_rng(seed))
        rows.extend(out.selected_slots.tolist())
    distinct = all(len(r) == k and len(set(r)) == k and 0 <= min(r) and max(r) < m
                   for r in rows)
    results["selector_keeps_k"] = (distinct, f"{len(rows)} rows of {k} distinct slots in [0, {m})")

    if not baseline:
        return results
    untrained = dtst.model.init_params(model_cfg, seed)
    u_emb, _, u_ids, u_views = dtst.evaluate.embed_samples(model_cfg, untrained, test)
    before = oracle.score_all(u_emb, u_ids, u_views, split_seed)["A<->G"]["mAP"]
    after = report["A<->G"]["mAP"]
    results["training_helps"] = (after > before, f"A<->G mAP untrained {before:.4f}, trained {after:.4f}")
    return results
