"""Retrieval ranking, the Rank-1/mAP/mINP metrics, and the view protocols.

Matching uses cosine similarity. Every protocol draws its query and gallery
sides from one seeded per-(id, view) partition, so a query never ranks
against itself; same-view and cross-view protocols keep the queries of one
view and rank them in the gallery rows of one view. Bidirectional protocols
run both directions and average the aggregates.

Scoring ranks every query of the split in one pass against the gallery
split in parts, one part per gallery view. Each block of queries makes one
similarity matrix per part, about `_BLOCK_SIMILARITIES` entries in all,
value-sorts its rows, and finds every true match of the block in one
comparison of ids per part. A match's count of larger values in a part
comes from a binary search in that part's sorted row: one `searchsorted`
per query row and part, the only per-query calls. Its rank in its own part
is one plus the count there; its rank in the whole gallery is one plus the
counts of all parts. So one pass gives every query's scores in each gallery
view and in the whole gallery, in query order: a protocol keeps the queries
of its query view. Ties are found for the whole block at once, as a value
that occurs again in some part; only in a block that has one, each such
match's rank adds the count of equal values at lower gallery places, in its
own part and in the whole gallery, so equal values rank in gallery order,
the lower index first. A one-row block or part is scored as two copies of
itself, as GEMV rounds apart from GEMM. A block's ranks stay in one array,
by target (each gallery view, then the whole gallery), then query, with
one count of matches per target and query. AP and INP are computed at once
for all queries of a block that have the same number of matches, bit for
bit as one query at a time; the Rank-1 hit is whether the first rank is 1.
A report holds the aggregates alone, no per-query score. `rank_gallery`
takes a gallery in parts only, each part with its rows' places in the
whole gallery; a gallery in one piece is the one part of itself.

The six protocols of one eval share this work through a `SharedScoring`:
the embedding checks, the split and the one pass, made by the first
`evaluate_protocol` call that needs them. A call without one makes its own
and ranks every query once, whatever its protocol.

The query/gallery partition sorts the rows by (id, view) once and draws one
permutation per group, in ascending (id, view) order.

Embeddings must be finite and must not all be the same row:
`evaluate_protocol` rejects a NaN or infinite entry, a row whose L2 norm
overflows, or rows that are all identical (every similarity ties), with
`NumericError`, since no ranking of them would mean anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from . import model as model_mod
from .errors import (ContractError, DimensionError, DomainError, NumericError, ProtocolError,
                     check_count)
from .model import VIEW_AERIAL, VIEW_GROUND

PROTOCOL_ALL = "ALL"
PROTOCOL_AA = "A<->A"
PROTOCOL_GG = "G<->G"
PROTOCOL_AG = "A<->G"
PROTOCOL_A2G = "A->G"
PROTOCOL_G2A = "G->A"
PROTOCOLS = (PROTOCOL_ALL, PROTOCOL_AA, PROTOCOL_GG, PROTOCOL_AG,
             PROTOCOL_A2G, PROTOCOL_G2A)

# similarities per query block, over the whole gallery split: a block's
# similarity matrices take 512 KB together (256 KB per view when the two
# views are balanced), and their sorted copies as much (more only for a
# gallery above 2**16 rows, one query per block). With 2 MB per matrix,
# ranking an 8192-sample split took about 160k minor page faults, as the
# allocator handed each freed pair back to the OS, and ran about a quarter
# slower.
_BLOCK_SIMILARITIES = 1 << 16

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


def unit_rows(x):
    """Rows scaled to unit L2 norm; a row of norm below 1e-12 is divided by
    1e-12, so an all-zero row stays zero. A row whose norm overflows float64
    raises `NumericError`: dividing by it would make a zero row."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    bad = np.count_nonzero(np.isinf(norms))
    if bad:
        raise NumericError(f"{bad} of {len(x)} embedding rows have an L2 norm beyond float64")
    return x / np.maximum(norms, 1e-12)


def rank_gallery(queries, query_ids, parts):
    """The 1-based ranks of every query's true matches in each gallery part
    and in the whole gallery, each sorted by descending similarity, ties
    broken toward the lower gallery index, as `(ranks, counts)`: `counts`
    [targets, B] holds each query's number of matches in each target (each
    part, then the whole gallery), and `ranks` all of them in one array, by
    target, then query, ascending within a query.

    `queries` [B, d] are finite unit rows (`unit_rows`), so the similarity
    is cosine, and `query_ids` [B] holds one identity per row. `parts` is
    the gallery in parts (`evaluate_protocol` makes one per view), each a
    triple `(rows, ids, columns)`: at least one unit row, one identity per
    row and each row's place in the whole gallery, the columns of all parts
    together holding each place 0 ... G-1 once. Each part gets one
    similarity matrix and one sort; a whole gallery is the one part
    `(gallery, ids, arange(G))` of itself."""
    query_ids = np.asarray(query_ids)
    if query_ids.shape != (len(queries),):
        raise DimensionError(f"query ids {query_ids.shape} need one entry per row "
                             f"({len(queries)})")
    parts = [(rows, np.asarray(ids), np.asarray(cols)) for rows, ids, cols in parts]
    if not parts:
        raise DimensionError("a gallery needs at least one part to rank against")
    for rows, ids, cols in parts:
        if len(rows) == 0:
            raise DimensionError("a gallery part has no rows to rank against")
        if ids.shape != (len(rows),):
            raise DimensionError(f"gallery ids {ids.shape} need one entry per row ({len(rows)})")
        if cols.shape != (len(rows),):
            raise DimensionError(f"gallery columns {cols.shape} need one entry per row "
                                 f"({len(rows)})")
        if rows.shape[1] != queries.shape[1]:
            raise DimensionError(
                f"embedding widths disagree: query {queries.shape[1]}, gallery {rows.shape[1]}")
    places = np.concatenate([cols for _, _, cols in parts])
    g = len(places)
    if not (places.dtype.kind in "iu" and places.min() >= 0 and places.max() < g
            and np.bincount(places.astype(np.int64, copy=False), minlength=g).max() == 1):
        raise DimensionError(f"gallery columns must hold each place 0 ... {g - 1} once")
    # a one-row side (a query, or a gallery part) is scored as two copies of
    # itself: GEMV can round bitwise-equal rows differently from the GEMM of
    # a larger block, and so break their tie
    def two(a):
        return a[[0, 0]] if len(a) == 1 else a

    sims, ordered, found = [], [], []
    for p, (rows, ids, cols) in enumerate(parts):
        part_sims = (two(queries) @ two(rows).T)[:len(queries), :len(rows)]
        sims.append(part_sims)
        ordered.append(np.sort(part_sims, axis=1))
        match = np.flatnonzero(query_ids[:, None] == ids)
        row, col = np.divmod(match, len(rows))
        found.append((row, cols[col], part_sims.ravel()[match], np.full(len(row), p)))
    row, at, vals, part = (np.concatenate(a) for a in zip(*found))
    # matches by row, then by about their value (|value| <= 1), which makes
    # the binary searches below about twice as fast
    merged = np.argsort(row * 4.0 + vals)
    row, at, vals, part = (a[merged] for a in (row, at, vals, part))
    bounds = np.searchsorted(row, np.arange(len(queries) + 1)).tolist()
    spans = list(zip(bounds[:-1], bounds[1:]))
    # past[p, m]: the values of part p at or below match m's
    past = np.empty((len(parts), len(row)), dtype=np.int64)
    for part_past, part_ordered in zip(past, ordered):
        for asc, (lo, hi) in zip(part_ordered, spans):
            part_past[lo:hi] = asc.searchsorted(vals[lo:hi], side="right")
    # match m's value occurs again in part p when the value below its own
    # last copy (its own part) or the largest value at or below it (any
    # other part) equals it
    own = part == np.arange(len(parts))[:, None]
    tied = np.stack([asc[row, k - 1 - mine] == vals
                     for asc, k, mine in zip(ordered, past, own)])
    sizes = [len(rows) for rows, _, _ in parts]
    ranks = np.array(sizes)[part] + 1 - past[part, np.arange(len(part))]
    whole = sum(sizes) + 1 - past.sum(axis=0)
    # a match tied in part p ranks after the equal values of p at lower
    # gallery places, in the whole gallery and, if p is its own, in p
    for p in np.flatnonzero(tied.any(axis=1)).tolist():
        m = np.flatnonzero(tied[p])
        ahead = np.count_nonzero((sims[p][row[m]] == vals[m, None])
                                 & (parts[p][2] < at[m, None]), axis=1)
        ranks[m] += ahead * (part[m] == p)
        whole[m] += ahead
    n = len(queries)
    # by target, then query, then rank: one sort of one key per match
    group = np.concatenate([part * n + row, len(parts) * n + row])
    top = sum(sizes) + 1
    ranks = np.sort(group * top + np.concatenate([ranks, whole])) % top
    counts = np.bincount(group, minlength=(len(parts) + 1) * n).reshape(len(parts) + 1, n)
    return ranks, counts


def _match_ranks(ranks, metric):
    """C-contiguous int64 `ranks`, each row one or more ascending integers >= 1."""
    ranks = np.asarray(ranks)
    if (ranks.ndim == 0 or ranks.shape[-1] == 0 or ranks.dtype.kind not in "iu"
            or (ranks[..., 0] < 1).any() or (ranks[..., 1:] <= ranks[..., :-1]).any()):
        raise ProtocolError(f"{metric} needs one or more match ranks along the last axis, "
                            f"integers >= 1 in strictly ascending order; got {ranks!r}")
    return np.ascontiguousarray(ranks, dtype=np.int64)


def average_precision(ranks):
    """AP = (1/|G|) * sum over the ascending match ranks r_i of i / r_i,
    over the last axis: [n] ranks of one query give a scalar, [Q, n] ranks
    of Q queries with n matches each an array [Q]. A C-contiguous row sums
    in the same pairwise order as the 1-D array, so each row's AP is bit for
    bit the AP of that row alone."""
    ranks = _match_ranks(ranks, "average_precision")
    n = ranks.shape[-1]
    return (np.arange(1, n + 1) / ranks).sum(axis=-1) / n


def inverse_negative_penalty(ranks):
    """INP = (number of true matches) / (rank of the hardest true match),
    over the last axis of [n] or [Q, n] ranks."""
    ranks = _match_ranks(ranks, "inverse_negative_penalty")
    return ranks.shape[-1] / ranks[..., -1]


def _block_scores(ranks, counts):
    """(AP, INP, Rank-1 hit, has a match) of each query of a block, from
    one array of `ranks` holding `counts[i]` ascending ranks for query i,
    in query order; AP and INP are NaN for a query with no match."""
    first = np.cumsum(counts) - counts
    scored = counts > 0
    ap, inp = np.full(len(counts), np.nan), np.full(len(counts), np.nan)
    # one [queries, n] array per distinct match count n
    for n in np.unique(counts[scored]).tolist():
        same = np.flatnonzero(counts == n)
        group = ranks[first[same, None] + np.arange(n)]
        ap[same] = average_precision(group)
        inp[same] = inverse_negative_penalty(group)
    hit = np.zeros(len(counts), dtype=bool)
    hit[scored] = ranks[first[scored]] == 1
    return ap, inp, hit, scored


def query_gallery_split(ids, views, seed: int):
    """Seeded partition into (query mask, gallery mask), balanced per
    (id, view) group so each side keeps roughly half of every group. Groups
    draw their permutations in ascending (id, view) order."""
    ids, views = np.asarray(ids), np.asarray(views)
    if ids.ndim != 1 or views.shape != ids.shape:
        raise DimensionError(f"ids {ids.shape} and views {views.shape} need one entry per sample")
    seed = check_count(seed, 0, DomainError, f"split seed must be an integer >= 0, got {seed!r}")
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


class SharedScoring:
    """What the `evaluate_protocol` calls of one eval share: the embedding
    checks, the query/gallery split and the scores of every query in each
    gallery view and in the whole gallery, ranked in one pass by the first
    call that needs a score. It belongs to the embeddings, ids, views and
    split seed of the first call; a later call with others is a
    `ProtocolError`."""

    def __init__(self):
        self.inputs = None
        self.scores = None  # gallery view or None for all -> scores of every query

    def bind(self, embeddings, ids, views, split_seed):
        if self.inputs is not None:
            if (any(a is not b for a, b in zip(self.inputs, (embeddings, ids, views)))
                    or self.inputs[3] != split_seed):
                raise ProtocolError("this shared scoring belongs to other embeddings, "
                                    "ids, views or split seed")
            return
        emb = np.asarray(embeddings, dtype=np.float64)
        ids_a, views_a = np.asarray(ids), np.asarray(views)
        if emb.ndim != 2 or not len(emb) == len(ids_a) == len(views_a):
            raise DimensionError(
                f"embeddings {emb.shape} need one row per id ({len(ids_a)}) "
                f"and view ({len(views_a)})")
        bad = np.count_nonzero(~np.isfinite(emb).all(axis=1))
        if bad:
            raise NumericError(f"{bad} of {len(emb)} embedding rows are not finite")
        if len(emb) > 1 and not (emb != emb[0]).any():
            raise NumericError(f"all {len(emb)} embedding rows are identical, so every "
                               f"similarity ties")
        unit = unit_rows(emb)
        q_mask, g_mask = query_gallery_split(ids_a, views_a, split_seed)
        self.queries, self.q_ids, self.q_views = unit[q_mask], ids_a[q_mask], views_a[q_mask]
        g_rows = np.flatnonzero(g_mask)
        g_views = views_a[g_rows]
        # gallery view -> (unit rows, ids, places in the gallery split)
        self.parts = {}
        for v in np.unique(g_views).tolist():
            cols = np.flatnonzero(g_views == v)
            self.parts[v] = (unit[g_rows[cols]], ids_a[g_rows[cols]], cols)
        self.inputs = (embeddings, ids, views, split_seed)

    def direction(self, q_view, g_view):
        """(AP, INP, hit, has a match) of each query of one direction, in
        query order; None for a view takes every view."""
        if self.scores is None:
            self.scores = _score_pass(self.queries, self.q_ids, self.parts)
        scores = self.scores[g_view]
        return scores if q_view is None else [a[self.q_views == q_view] for a in scores]


def _score_pass(queries, query_ids, parts):
    """{gallery view, or None for the whole gallery: (AP, INP, hit, has a
    match) per query} of `queries` ranked against the gallery `parts`
    ({view: (unit rows, ids, places in the gallery split)}), in blocks
    sized by the whole gallery."""
    targets = [*parts, None]
    gallery = list(parts.values())
    block = max(1, _BLOCK_SIMILARITIES // sum(len(rows) for rows, _, _ in gallery))
    out = {t: [] for t in targets}
    for start in range(0, len(queries), block):
        ranks, counts = rank_gallery(queries[start:start + block],
                                     query_ids[start:start + block], gallery)
        # one scoring of every target's ranks, cut back into targets
        scores = _block_scores(ranks, counts.ravel())
        for t, *cut in zip(targets, *(a.reshape(len(targets), -1) for a in scores)):
            out[t].append(cut)
    return {t: [np.concatenate(a) for a in zip(*blocks)] for t, blocks in out.items()}


_VIEW_FILTERS = {
    PROTOCOL_ALL: [(None, None)],
    PROTOCOL_AA: [(VIEW_AERIAL, VIEW_AERIAL)],
    PROTOCOL_GG: [(VIEW_GROUND, VIEW_GROUND)],
    PROTOCOL_AG: [(VIEW_AERIAL, VIEW_GROUND), (VIEW_GROUND, VIEW_AERIAL)],
    PROTOCOL_A2G: [(VIEW_AERIAL, VIEW_GROUND)],
    PROTOCOL_G2A: [(VIEW_GROUND, VIEW_AERIAL)],
}


def evaluate_protocol(embeddings, ids, views, protocol: str,
                      split_seed: int = 0, *, shared=None) -> RetrievalReport:
    """The report of one protocol. Pass one `SharedScoring` to every call
    of an eval as `shared` to rank the queries once for all of them;
    without it, the call ranks every query for itself."""
    if protocol not in PROTOCOLS:
        raise ProtocolError(f"unknown protocol {protocol!r}")
    scoring = SharedScoring() if shared is None else shared
    scoring.bind(embeddings, ids, views, split_seed)
    rank1s, map_vals, minp_vals = [], [], []
    num_queries = 0
    excluded = 0
    for q_view, g_view in _VIEW_FILTERS[protocol]:
        if not (scoring.parts if g_view is None else g_view in scoring.parts):
            raise ProtocolError(f"protocol {protocol}: empty gallery after view filter")
        if not (len(scoring.q_views) if q_view is None else (scoring.q_views == q_view).any()):
            raise ProtocolError(f"protocol {protocol}: empty query set after view filter")
        ap, inp, hit, scored = scoring.direction(q_view, g_view)
        if not scored.any():
            raise ProtocolError(f"protocol {protocol}: no scoreable queries")
        rank1s.append(float(np.mean(hit[scored])))
        map_vals.append(float(np.mean(ap[scored])))
        minp_vals.append(float(np.mean(inp[scored])))
        num_queries += int(np.count_nonzero(scored))
        excluded += int(np.count_nonzero(~scored))
    return RetrievalReport(
        protocol=protocol,
        rank1=float(np.mean(rank1s)),
        mean_ap=float(np.mean(map_vals)),
        mean_inp=float(np.mean(minp_vals)),
        num_queries=num_queries,
        num_excluded=excluded,
    )


def embed_samples(cfg, params, samples, batch_size: int = EMBED_BATCH):
    """Inference-mode embeddings for a list of data.Sample.

    Returns (meta [N, d], view [N, d], ids [N], views [N]); the meta features
    are the retrieval embeddings. `batch_arrays` and `model_forward` are
    looked up on their modules at each call, so a wrapper installed there
    (a profiler's, say) sees every batch.
    """
    batch_size = check_count(batch_size, 1, ContractError,
                             f"batch_size must be at least 1, got {batch_size}")
    if len(samples) == 0:
        raise DimensionError("no samples to embed")
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
    """JSON-lines, one record per protocol."""
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
