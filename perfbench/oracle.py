"""Independent retrieval oracle: Rank-1, mAP and mINP for the six protocols.

This re-derives every number `dtst eval` writes to `report.jsonl` from the
exported embeddings alone. It shares no code with `dtst.evaluate`: the
query/gallery partition, cosine ranking and the AP/INP definitions are
written out again here. One query-by-gallery similarity matrix is sorted
once per query with a stable argsort; a protocol's ranking is that order
restricted to its gallery view, which is the order a stable sort of the
restricted gallery would give.
"""

from __future__ import annotations

import numpy as np

AERIAL, GROUND = 0, 1

# protocol -> list of (query view, gallery view); None keeps both views.
# Bidirectional protocols average the per-direction aggregates.
PROTOCOL_DIRECTIONS = {
    "ALL": [(None, None)],
    "A<->A": [(AERIAL, AERIAL)],
    "G<->G": [(GROUND, GROUND)],
    "A<->G": [(AERIAL, GROUND), (GROUND, AERIAL)],
    "A->G": [(AERIAL, GROUND)],
    "G->A": [(GROUND, AERIAL)],
}

_ROW_CHUNK = 256  # sort the similarity matrix this many rows at a time


def query_mask(ids, views, seed):
    """Seeded per-(id, view) partition: the first half of a permutation of
    each group's members are queries, the rest gallery."""
    ids = np.asarray(ids)
    views = np.asarray(views)
    rng = np.random.default_rng(seed)
    is_query = np.zeros(len(ids), dtype=bool)
    for y in np.unique(ids):
        for v in np.unique(views):
            members = np.nonzero((ids == y) & (views == v))[0]
            if len(members):
                perm = rng.permutation(members)
                is_query[perm[:len(perm) // 2]] = True
    return is_query


def ap_inp(flags):
    """Per-row AP and INP of ranked match flags [Q, G] (rows with at least
    one match). AP = mean over matches of precision at the match's rank;
    INP = number of matches / rank of the last match."""
    flags = np.atleast_2d(np.asarray(flags, dtype=bool))
    ranks = np.arange(1, flags.shape[1] + 1)
    hits = np.cumsum(flags, axis=1)
    total = hits[:, -1]
    ap = np.where(flags, hits / ranks, 0.0).sum(axis=1) / total
    last = flags.shape[1] - np.argmax(flags[:, ::-1], axis=1)
    return ap, total / last


def _unit_rows(x):
    return x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)


def score_all(embeddings, ids, views, split_seed):
    """{protocol: {rank1, mAP, mINP, num_queries, num_excluded}}."""
    emb = np.asarray(embeddings, dtype=np.float64)
    ids = np.asarray(ids)
    views = np.asarray(views)
    is_query = query_mask(ids, views, split_seed)
    q_idx = np.nonzero(is_query)[0]
    g_idx = np.nonzero(~is_query)[0]
    sims = _unit_rows(emb[q_idx]) @ _unit_rows(emb[g_idx]).T  # the one matrix
    q_ids, g_ids = ids[q_idx], ids[g_idx]
    q_views, g_views = views[q_idx], views[g_idx]

    # per direction: lists of per-query AP, INP, top-1 hit, and excluded count
    directions = {d for dirs in PROTOCOL_DIRECTIONS.values() for d in dirs}
    acc = {d: ([], [], [], 0) for d in directions}
    for start in range(0, len(q_idx), _ROW_CHUNK):
        rows = slice(start, start + _ROW_CHUNK)
        order = np.argsort(-sims[rows], axis=1, kind="stable")
        matched = g_ids[order] == q_ids[rows][:, None]
        ranked_views = g_views[order]
        for q_view, g_view in directions:
            keep = (np.ones(len(order), bool) if q_view is None
                    else q_views[rows] == q_view)
            flags = matched[keep]
            if g_view is not None:
                flags = flags[ranked_views[keep] == g_view].reshape(len(flags), -1)
            scored = flags.any(axis=1)
            ap, inp = ap_inp(flags[scored])
            aps, inps, firsts, excluded = acc[(q_view, g_view)]
            aps.append(ap)
            inps.append(inp)
            firsts.append(flags[scored, 0])
            acc[(q_view, g_view)] = (aps, inps, firsts, excluded + int((~scored).sum()))

    out = {}
    for protocol, dirs in PROTOCOL_DIRECTIONS.items():
        parts = [[np.concatenate(a) for a in acc[d][:3]] + [acc[d][3]] for d in dirs]
        out[protocol] = {
            "rank1": float(np.mean([np.mean(p[2]) for p in parts])),
            "mAP": float(np.mean([np.mean(p[0]) for p in parts])),
            "mINP": float(np.mean([np.mean(p[1]) for p in parts])),
            "num_queries": sum(len(p[0]) for p in parts),
            "num_excluded": sum(p[3] for p in parts),
        }
    return out
