"""Retrieval ranking, the Rank-1/mAP/mINP metrics, and the view protocols.

Matching uses cosine similarity. Same-view and unfiltered protocols draw
their query and gallery sides from a seeded per-(id, view) partition so a
query never ranks against itself; cross-view protocols use the partition the
same way with opposite view filters. Bidirectional protocols run both
directions and average the aggregates.

Ranking works on blocks of queries. Each direction normalises its query and
gallery rows once; each block of queries makes one similarity matrix of
about `_BLOCK_SIMILARITIES` entries and value-sorts its rows. A true match's
rank is one plus the number of gallery values above its own, found by binary
search in the sorted row, plus the number of equal values at lower gallery
indices, counted exactly. That is the position a stable sort by descending
similarity would give it, without sorting gallery indices. AP, INP and the
Rank-1 hit all come from a query's ascending match ranks.

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
    index; an empty array for a query with no match.

    `queries` [B, d] and `gallery` [G, d] are finite unit rows (`unit_rows`),
    so the similarity is cosine."""
    if gallery.shape[1] != queries.shape[1]:
        raise DimensionError(
            f"embedding widths disagree: query {queries.shape[1]}, gallery {gallery.shape[1]}")
    sims = queries @ gallery.T
    ordered = np.sort(sims, axis=1)
    out = []
    for row, asc, qid in zip(sims, ordered, query_ids):
        cols = np.flatnonzero(gallery_ids == qid)
        vals = row[cols]
        past = asc.searchsorted(vals, side="right")
        ranks = len(asc) - past + 1
        # where a match's value occurs again, the equal values at lower
        # gallery indices rank first; `eq` holds the columns of tied values
        tied = np.flatnonzero(asc[past - 2] == vals)
        if tied.size:
            tv = np.sort(vals[tied])
            eq = np.flatnonzero(tv[np.minimum(tv.searchsorted(row), tv.size - 1)] == row)
            ranks[tied] += np.count_nonzero(
                (row[eq] == vals[tied, None]) & (eq < cols[tied, None]), axis=1)
        ranks.sort()
        out.append(ranks)
    return out


def average_precision(ranks) -> float:
    """AP = (1/|G|) * sum over the ascending match ranks r_i of i / r_i."""
    ranks = np.asarray(ranks, dtype=np.int64)
    if len(ranks) == 0:
        raise ProtocolError("average_precision needs at least one true match")
    return float((np.arange(1, len(ranks) + 1) / ranks).sum() / len(ranks))


def inverse_negative_penalty(ranks) -> float:
    """INP = (number of true matches) / (rank of the hardest true match)."""
    if len(ranks) == 0:
        raise ProtocolError("inverse_negative_penalty needs at least one true match")
    return len(ranks) / int(ranks[-1])


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
        for ranks in rank_gallery(queries[start:stop], q_ids[start:stop], gallery, g_ids):
            if len(ranks) == 0:
                excluded += 1
                continue
            aps.append(average_precision(ranks))
            inps.append(inverse_negative_penalty(ranks))
            hits.append(bool(ranks[0] == 1))
    return aps, inps, hits, excluded


def query_gallery_split(ids, views, seed: int):
    """Seeded partition into (query mask, gallery mask), balanced per
    (id, view) group so each side keeps roughly half of every group."""
    ids = np.asarray(ids)
    views = np.asarray(views)
    rng = np.random.default_rng(seed)
    is_query = np.zeros(len(ids), dtype=bool)
    for y in np.unique(ids):
        for v in np.unique(views):
            members = np.nonzero((ids == y) & (views == v))[0]
            if len(members) == 0:
                continue
            perm = rng.permutation(members)
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


def embed_samples(cfg, params, samples, batch_size: int = 64):
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
