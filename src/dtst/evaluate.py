"""Retrieval ranking, the Rank-1/mAP/mINP metrics, and the view protocols.

Matching uses cosine similarity. Every protocol draws its query and gallery
sides from one seeded per-(id, view) partition, so a query never ranks
against itself; same-view and cross-view protocols keep the queries of one
view and rank them in the gallery rows of one view. Bidirectional protocols
run both directions and average the aggregates.

Scoring runs one query view at a time against the gallery split in parts,
one part per gallery view. Each block of queries makes one similarity
matrix per part, about `_BLOCK_SIMILARITIES` entries in all, value-sorts
its rows, and finds every true match of the block in one comparison of ids
per part. A match's count of larger values in a part comes from a binary
search in that part's sorted row: one `searchsorted` per query row and
part, the only per-query calls. Its rank in its own part is one plus the
count there; its rank in the whole gallery is one plus the counts of all
parts. So one pass gives a query view's rows of its same-view protocol, of
its cross-view protocol and of `ALL`. Ties are found for the whole block
at once, as a value that occurs again in some part; only the rows holding
such a match are sorted again, stably by descending similarity, over the
part or over the whole gallery in gallery order, and give those matches
their place in that order, so equal values rank in gallery order, the lower
index first. AP and INP are computed at once for all queries of a block
that have the same number of matches, bit for bit as one query at a time;
the Rank-1 hit is whether the first rank is 1.

The six protocols of one eval share this work through a `SharedScoring`:
the embedding checks, the unit rows, the split, and each query view's pass
against every gallery view, each made by the first `evaluate_protocol` call
that needs it. A call without one makes its own, so it makes the same
passes for the query views it needs and keeps only its own protocol's
scores.

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


def rank_gallery(queries, query_ids, gallery, gallery_ids, columns=None):
    """Ascending 1-based ranks of each query's true matches in the gallery
    sorted by descending similarity, ties broken toward the lower gallery
    index; an empty array for a query with no match. The arrays are slices
    of one array, in query order.

    `queries` [B, d] and `gallery` [G, d] are finite unit rows (`unit_rows`),
    so the similarity is cosine; `query_ids` [B] and `gallery_ids` [G] hold
    one identity per row.

    With `columns`, the gallery comes in parts (`evaluate_protocol` makes
    one per view): `gallery` and `gallery_ids` list each part's rows and
    ids, and `columns` the places of each part's rows in the whole gallery,
    ascending. The result is then one list of rank arrays as above per
    part, ranking in that part alone, followed by one ranking in the whole
    gallery. Each part gets one similarity matrix and one sort. Without
    `columns`, the gallery is the one part of itself, and the result is its
    whole-gallery list alone."""
    whole_only = columns is None
    if whole_only:
        gallery, gallery_ids, columns = [gallery], [gallery_ids], [np.arange(len(gallery))]
    if not len(gallery) == len(gallery_ids) == len(columns):
        raise DimensionError(f"{len(gallery)} gallery parts need as many id arrays "
                             f"({len(gallery_ids)}) and column arrays ({len(columns)})")
    query_ids = np.asarray(query_ids)
    if query_ids.shape != (len(queries),):
        raise DimensionError(f"query ids {query_ids.shape} need one entry per row "
                             f"({len(queries)})")
    parts = [(rows, np.asarray(ids)) for rows, ids in zip(gallery, gallery_ids)]
    for rows, ids in parts:
        if ids.shape != (len(rows),):
            raise DimensionError(f"gallery ids {ids.shape} need one entry per row ({len(rows)})")
        if rows.shape[1] != queries.shape[1]:
            raise DimensionError(
                f"embedding widths disagree: query {queries.shape[1]}, gallery {rows.shape[1]}")
    # one query is scored as two copies of itself: a one-row product goes
    # through GEMV, which can round bitwise-equal gallery rows differently from
    # the GEMM of a larger block, and so break their tie
    lhs = queries[[0, 0]] if len(queries) == 1 else queries
    sims, ordered, found = [], [], []
    for p, (rows, ids) in enumerate(parts):
        part_sims = (lhs @ rows.T)[:len(queries)]
        sims.append(part_sims)
        ordered.append(np.sort(part_sims, axis=1))
        match = np.flatnonzero(query_ids[:, None] == ids)
        row, col = np.divmod(match, len(rows))
        at = np.asarray(columns[p])[col]
        found.append((row, col, at, part_sims.ravel()[match], np.full(len(row), p)))
    row, col, at, vals, part = (np.concatenate(a) for a in zip(*found))
    # matches by row, then by about their value (|value| <= 1), which makes
    # the binary searches below about twice as fast
    merged = np.argsort(row * 4.0 + vals)
    row, col, at, vals, part = (a[merged] for a in (row, col, at, vals, part))
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
    sizes = [len(rows) for rows, _ in parts]
    ranks = np.array(sizes)[part] + 1 - past[part, np.arange(len(part))]
    for part_sims, tie in zip(sims, tied & own):
        _place_ties(ranks, tie, row, col, lambda tie_rows: part_sims[tie_rows])
    n = len(queries)

    def whole_rows(tie_rows):
        full = np.empty((len(tie_rows), sum(sizes)))
        for part_sims, cols in zip(sims, columns):
            full[:, cols] = part_sims[tie_rows]
        return full

    whole = sum(sizes) + 1 - past.sum(axis=0)
    _place_ties(whole, tied.any(axis=0), row, at, whole_rows)
    # the parts' lists and the whole gallery's, cut from one array
    ranked = _per_query(np.concatenate([part * n + row, len(parts) * n + row]),
                        np.concatenate([ranks, whole]), sum(sizes), (len(parts) + 1) * n)
    lists = [ranked[start:start + n] for start in range(0, len(ranked), n)]
    return lists[-1] if whole_only else lists


def _place_ties(ranks, tie, row, col, rows_of):
    """Give each match in `tie` its place in a stable sort of its row by
    descending similarity, so equal values at lower gallery indices rank
    first; `rows_of(tie_rows)` gives those rows' similarities, in gallery
    order."""
    if tie.any():
        tie_rows, which = np.unique(row[tie], return_inverse=True)
        order = np.argsort(-rows_of(tie_rows), axis=1, kind="stable")
        place = np.empty_like(order)
        np.put_along_axis(place, order, np.arange(1, order.shape[1] + 1), axis=1)
        ranks[tie] = place[which, col[tie]]


def _per_query(group, ranks, size, num_groups):
    """The `ranks` of each group (a query row) in ascending order: slices
    of one array, in group order. Ranks are at most `size`."""
    keyed = np.sort(group * (size + 1) + ranks)
    bounds = [0, *np.cumsum(np.bincount(group, minlength=num_groups)).tolist()]
    ranks = keyed % (size + 1)
    return [ranks[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


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


def _block_scores(ranked):
    """(AP, INP, Rank-1 hit, has a match) of each query of a block, from
    its per-query ranks; AP and INP are NaN for a query with no match."""
    flat = np.concatenate(ranked)
    counts = np.fromiter(map(len, ranked), dtype=np.int64, count=len(ranked))
    first = np.cumsum(counts) - counts
    scored = counts > 0
    ap, inp = np.full(len(counts), np.nan), np.full(len(counts), np.nan)
    # one [queries, n] array per distinct match count n
    for n in np.unique(counts[scored]).tolist():
        same = np.flatnonzero(counts == n)
        group = flat[first[same, None] + np.arange(n)]
        ap[same] = average_precision(group)
        inp[same] = inverse_negative_penalty(group)
    hit = np.zeros(len(counts), dtype=bool)
    hit[scored] = flat[first[scored]] == 1
    return ap, inp, hit, scored


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


class SharedScoring:
    """What the `evaluate_protocol` calls of one eval share: the embedding
    checks, the unit rows, the query/gallery split and, per query view, the
    scores of its queries in each gallery view and in the whole gallery.
    Made empty, it is filled by the calls as they first need each part, and
    it belongs to the embeddings, ids, views and split seed of the first
    call; a later call with others is a `ProtocolError`."""

    def __init__(self):
        self.inputs = None
        self.scores = {}  # query view -> {gallery view or None for all: scores}

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
        self.q_rows, g_rows = np.flatnonzero(q_mask), np.flatnonzero(g_mask)
        self.unit, self.ids, self.q_views = unit, ids_a, views_a[self.q_rows]
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
        if q_view is not None:
            return self._view(q_view)[g_view]
        # each query view's scores in the whole gallery, put back in query order
        per_view = [self._view(v)[None] for v in np.unique(self.q_views).tolist()]
        back = np.argsort(np.argsort(self.q_views, kind="stable"))
        return [np.concatenate(scores)[back] for scores in zip(*per_view)]

    def _view(self, q_view):
        """The scores of one query view's queries, ranked on first need."""
        if q_view not in self.scores:
            rows = self.q_rows[self.q_views == q_view]
            self.scores[q_view] = _score_pass(self.unit[rows], self.ids[rows], self.parts)
        return self.scores[q_view]


def _score_pass(queries, query_ids, parts):
    """{gallery view, or None for the whole gallery: (AP, INP, hit, has a
    match) per query} of `queries` ranked against the gallery `parts`
    ({view: (unit rows, ids, places in the gallery split)}), in blocks
    sized by the whole gallery."""
    targets = [*parts, None]
    rows, ids, cols = zip(*parts.values())
    block = max(1, _BLOCK_SIMILARITIES // sum(map(len, rows)))
    out = {t: [] for t in targets}
    for start in range(0, len(queries), block):
        ranked = rank_gallery(queries[start:start + block], query_ids[start:start + block],
                              rows, ids, cols)
        # one scoring of every target's lists, cut back into targets
        scores = _block_scores([r for lists in ranked for r in lists])
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
    of an eval as `shared` to rank each query view once for all of them;
    without it, the call ranks the query views it needs for itself."""
    if protocol not in PROTOCOLS:
        raise ProtocolError(f"unknown protocol {protocol!r}")
    scoring = SharedScoring() if shared is None else shared
    scoring.bind(embeddings, ids, views, split_seed)
    rank1s, map_vals, minp_vals = [], [], []
    all_ap, all_inp = [], []
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
        aps, inps = ap[scored], inp[scored]
        rank1s.append(float(np.mean(hit[scored])))
        map_vals.append(float(np.mean(aps)))
        minp_vals.append(float(np.mean(inps)))
        all_ap.extend(aps.tolist())
        all_inp.extend(inps.tolist())
        num_queries += len(aps)
        excluded += int(np.count_nonzero(~scored))
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
