"""Retrieval ranking, the Rank-1/mAP/mINP metrics, and the view protocols.

Matching uses cosine similarity. Same-view and unfiltered protocols draw
their query and gallery sides from a seeded per-(id, view) partition so a
query never ranks against itself; cross-view protocols use the partition the
same way with opposite view filters. Bidirectional protocols run both
directions and average the aggregates.

Ranking works on blocks of queries, with a fixed number of array operations
per block. Each direction normalises its query and gallery rows once; each
block of queries makes one similarity matrix of about `_BLOCK_SIMILARITIES`
entries, value-sorts its rows, and finds every true match of the block in
one comparison of its ids with the gallery's. A match's rank is one plus the
number of gallery values above its own, found by binary search in its sorted
row: one `searchsorted` per query row, the only per-query call. Ties are
found for the whole block at once, as a match whose sorted neighbour equals
its value; only the rows holding such a match are sorted again, stably by
descending similarity, and give those matches their place in that order, so
equal values rank in gallery order, the lower index first. One integer sort
puts each query's ranks in ascending order. AP and INP are computed at once
for all queries of a block that have the same number of matches, bit for bit
as one query at a time; the Rank-1 hit is whether the first rank is 1.

The query/gallery partition sorts the rows by (id, view) once and draws one
permutation per group, in ascending (id, view) order.

Embeddings must be finite and must not all be the same row:
`evaluate_protocol` rejects a NaN or infinite entry, a row whose L2 norm
overflows, or rows that are all identical (every similarity ties), with
`NumericError`, since no ranking of them would mean anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import data as data_mod
from . import model as model_mod
from .errors import DimensionError, NumericError, ProtocolError
from .model import VIEW_AERIAL, VIEW_GROUND

PROTOCOL_ALL = "ALL"
PROTOCOL_AA = "A<->A"
PROTOCOL_GG = "G<->G"
PROTOCOL_AG = "A<->G"
PROTOCOL_A2G = "A->G"
PROTOCOL_G2A = "G->A"
PROTOCOLS = (PROTOCOL_ALL, PROTOCOL_AA, PROTOCOL_GG, PROTOCOL_AG,
             PROTOCOL_A2G, PROTOCOL_G2A)

# similarities per query block: a block's similarity matrix and its sorted
# copy take 256 KB each (more only for a gallery above 2**15 rows, one query
# per block). With 2 MB blocks, ranking an 8192-sample split took about 160k
# minor page faults, as the allocator handed each freed pair back to the OS,
# and ran about a quarter slower.
_BLOCK_SIMILARITIES = 1 << 15

# samples per `embed_samples` forward
EMBED_BATCH = 64


@dataclass
class RetrievalReport:
    protocol: str
    rank1: float
    mean_ap: float
    mean_inp: float
    num_queries: int
    num_excluded: int
    per_query_ap: list = field(default_factory=list)
    per_query_inp: list = field(default_factory=list)


def unit_rows(x):
    """Rows scaled to unit L2 norm; a row of norm below 1e-12 is divided by
    1e-12, so an all-zero row stays zero. A row whose norm overflows float64
    raises `NumericError`: dividing by it would make a zero row."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    bad = np.count_nonzero(np.isinf(norms))
    if bad:
        raise NumericError(f"{bad} of {len(x)} embedding rows have an L2 norm beyond float64")
    return x / np.maximum(norms, 1e-12)


def rank_gallery(queries, query_ids, gallery, gallery_ids):
    """Ascending 1-based ranks of each query's true matches in the gallery
    sorted by descending similarity, ties broken toward the lower gallery
    index; an empty array for a query with no match. The arrays are slices
    of one array, in query order.

    `queries` [B, d] and `gallery` [G, d] are finite unit rows (`unit_rows`),
    so the similarity is cosine; `query_ids` [B] and `gallery_ids` [G] hold
    one identity per row."""
    query_ids, gallery_ids = np.asarray(query_ids), np.asarray(gallery_ids)
    for side, ids, rows in (("query", query_ids, queries), ("gallery", gallery_ids, gallery)):
        if ids.shape != (len(rows),):
            raise DimensionError(f"{side} ids {ids.shape} need one entry per row ({len(rows)})")
    if gallery.shape[1] != queries.shape[1]:
        raise DimensionError(
            f"embedding widths disagree: query {queries.shape[1]}, gallery {gallery.shape[1]}")
    # one query is scored as two copies of itself: a one-row product goes
    # through GEMV, which can round bitwise-equal gallery rows differently from
    # the GEMM of a larger block, and so break their tie
    sims = (queries[[0, 0]] if len(queries) == 1 else queries) @ gallery.T
    sims = sims[:len(queries)]
    ordered = np.sort(sims, axis=1)
    size = sims.shape[1]
    # every match of the block in row-major order, so `rows` ascends
    match = np.flatnonzero(query_ids[:, None] == gallery_ids)
    rows, cols = np.divmod(match, size)
    vals = sims.ravel()[match]
    bounds = np.searchsorted(rows, np.arange(len(sims) + 1)).tolist()
    spans = list(zip(bounds[:-1], bounds[1:]))
    past = np.empty(len(rows), dtype=np.int64)
    for asc, (lo, hi) in zip(ordered, spans):
        past[lo:hi] = asc.searchsorted(vals[lo:hi], side="right")
    ranks = size + 1 - past
    # a match whose value occurs again in its row takes its place in a stable
    # sort of that row by descending similarity: equal values at lower
    # gallery indices rank first
    tied = ordered[rows, past - 2] == vals
    if tied.any():
        tied_rows, which = np.unique(rows[tied], return_inverse=True)
        order = np.argsort(-sims[tied_rows], axis=1, kind="stable")
        place = np.empty_like(order)
        np.put_along_axis(place, order, np.arange(1, size + 1), axis=1)
        ranks[tied] = place[which, cols[tied]]
    offset = rows * (size + 1)
    ranks = np.sort(offset + ranks) - offset
    return [ranks[lo:hi] for lo, hi in spans]


def average_precision(ranks):
    """AP = (1/|G|) * sum over the ascending match ranks r_i of i / r_i.

    `ranks` is one query's [n] ranks, giving a float, or [Q, n] for Q
    queries with n matches each, giving an array [Q]. A C-contiguous row
    sums in the same pairwise order as the 1-D array, so each row's AP is
    bit for bit the AP of that row alone."""
    ranks = np.ascontiguousarray(ranks, dtype=np.int64)
    n = ranks.shape[-1]
    if n == 0:
        raise ProtocolError("average_precision needs at least one true match")
    ap = (np.arange(1, n + 1) / ranks).sum(axis=-1) / n
    return float(ap) if ranks.ndim == 1 else ap


def inverse_negative_penalty(ranks):
    """INP = (number of true matches) / (rank of the hardest true match),
    for [n] ranks (a float) or each row of [Q, n] (an array [Q])."""
    ranks = np.asarray(ranks, dtype=np.int64)
    n = ranks.shape[-1]
    if n == 0:
        raise ProtocolError("inverse_negative_penalty needs at least one true match")
    inp = n / ranks[..., -1]
    return float(inp) if ranks.ndim == 1 else inp


def _score_direction(q_emb, q_ids, g_emb, g_ids, label):
    if len(g_ids) == 0:
        raise ProtocolError(f"protocol {label}: empty gallery after view filter")
    if len(q_ids) == 0:
        raise ProtocolError(f"protocol {label}: empty query set after view filter")
    queries, gallery = unit_rows(q_emb), unit_rows(g_emb)
    block = max(1, _BLOCK_SIMILARITIES // len(g_ids))
    aps, inps, hits = [], [], []
    excluded = 0
    for start in range(0, len(q_ids), block):
        stop = start + block
        ranked = rank_gallery(queries[start:stop], q_ids[start:stop], gallery, g_ids)
        flat = np.concatenate(ranked)
        counts = np.fromiter(map(len, ranked), dtype=np.int64, count=len(ranked))
        first = np.cumsum(counts) - counts
        scored = counts > 0
        counts, first = counts[scored], first[scored]
        excluded += len(scored) - len(counts)
        # one [queries, n] array per distinct match count n
        ap, inp = np.empty(len(counts)), np.empty(len(counts))
        for n in np.unique(counts).tolist():
            same = np.flatnonzero(counts == n)
            group = flat[first[same, None] + np.arange(n)]
            ap[same] = average_precision(group)
            inp[same] = inverse_negative_penalty(group)
        aps.extend(ap.tolist())
        inps.extend(inp.tolist())
        hits.extend((flat[first] == 1).tolist())
    return aps, inps, hits, excluded


def query_gallery_split(ids, views, seed: int):
    """Seeded partition into (query mask, gallery mask), balanced per
    (id, view) group so each side keeps roughly half of every group. Groups
    draw their permutations in ascending (id, view) order."""
    ids = np.asarray(ids)
    views = np.asarray(views)
    rng = np.random.default_rng(seed)
    is_query = np.zeros(len(ids), dtype=bool)
    order = np.lexsort((views, ids))
    sid, sview = ids[order], views[order]
    cuts = np.flatnonzero((sid[1:] != sid[:-1]) | (sview[1:] != sview[:-1])) + 1
    bounds = [0, *cuts.tolist(), len(ids)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        perm = rng.permutation(order[lo:hi])
        is_query[perm[:len(perm) // 2]] = True
    return is_query, ~is_query


_VIEW_FILTERS = {
    PROTOCOL_ALL: [(None, None)],
    PROTOCOL_AA: [(VIEW_AERIAL, VIEW_AERIAL)],
    PROTOCOL_GG: [(VIEW_GROUND, VIEW_GROUND)],
    PROTOCOL_AG: [(VIEW_AERIAL, VIEW_GROUND), (VIEW_GROUND, VIEW_AERIAL)],
    PROTOCOL_A2G: [(VIEW_AERIAL, VIEW_GROUND)],
    PROTOCOL_G2A: [(VIEW_GROUND, VIEW_AERIAL)],
}


def evaluate_protocol(embeddings, ids, views, protocol: str,
                      split_seed: int = 0) -> RetrievalReport:
    if protocol not in PROTOCOLS:
        raise ProtocolError(f"unknown protocol {protocol!r}")
    embeddings = np.asarray(embeddings, dtype=np.float64)
    ids = np.asarray(ids)
    views = np.asarray(views)
    if embeddings.ndim != 2 or not len(embeddings) == len(ids) == len(views):
        raise DimensionError(
            f"embeddings {embeddings.shape} need one row per id ({len(ids)}) "
            f"and view ({len(views)})")
    bad = np.count_nonzero(~np.isfinite(embeddings).all(axis=1))
    if bad:
        raise NumericError(f"{bad} of {len(embeddings)} embedding rows are not finite")
    if len(embeddings) > 1 and not (embeddings != embeddings[0]).any():
        raise NumericError(f"all {len(embeddings)} embedding rows are identical, so every "
                           f"similarity ties")
    q_mask, g_mask = query_gallery_split(ids, views, split_seed)
    rank1s, map_vals, minp_vals = [], [], []
    all_ap, all_inp = [], []
    num_queries = 0
    excluded = 0
    for q_view, g_view in _VIEW_FILTERS[protocol]:
        qm = q_mask if q_view is None else q_mask & (views == q_view)
        gm = g_mask if g_view is None else g_mask & (views == g_view)
        aps, inps, hits, skipped = _score_direction(
            embeddings[qm], ids[qm], embeddings[gm], ids[gm], protocol)
        if not aps:
            raise ProtocolError(f"protocol {protocol}: no scoreable queries")
        rank1s.append(float(np.mean(hits)))
        map_vals.append(float(np.mean(aps)))
        minp_vals.append(float(np.mean(inps)))
        all_ap.extend(aps)
        all_inp.extend(inps)
        num_queries += len(aps)
        excluded += skipped
    return RetrievalReport(
        protocol=protocol,
        rank1=float(np.mean(rank1s)),
        mean_ap=float(np.mean(map_vals)),
        mean_inp=float(np.mean(minp_vals)),
        num_queries=num_queries,
        num_excluded=excluded,
        per_query_ap=all_ap,
        per_query_inp=all_inp,
    )


def embed_samples(cfg, params, samples, batch_size: int = EMBED_BATCH):
    """Inference-mode embeddings for a list of data.Sample.

    Returns (meta [N, d], view [N, d], ids [N], views [N]); the meta features
    are the retrieval embeddings. `batch_arrays` and `model_forward` are
    looked up on their modules at each call, so a wrapper installed there
    (a profiler's, say) sees every batch.
    """
    metas, view_feats, ids, views = [], [], [], []
    for start in range(0, len(samples), batch_size):
        chunk = samples[start:start + batch_size]
        x, y, v = data_mod.batch_arrays(chunk)
        out = model_mod.model_forward(cfg, params, x, v, training=False)
        metas.append(out.meta_feature.data)
        view_feats.append(out.view_feature.data)
        ids.append(y)
        views.append(v)
    return (np.concatenate(metas), np.concatenate(view_feats),
            np.concatenate(ids), np.concatenate(views))


def write_reports(path, reports) -> None:
    """JSON-lines, one record per protocol (per-query lists omitted)."""
    with open(path, "w") as f:
        for r in reports:
            f.write(json.dumps({
                "protocol": r.protocol,
                "rank1": r.rank1,
                "mAP": r.mean_ap,
                "mINP": r.mean_inp,
                "num_queries": r.num_queries,
                "num_excluded": r.num_excluded,
            }) + "\n")
