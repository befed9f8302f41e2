"""Retrieval metrics against brute-force definitional oracles, plus the
view-protocol plumbing."""

import json
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtst import data, evaluate, model
from dtst import tensor as T
from dtst.errors import ContractError, DimensionError, DomainError, NumericError, ProtocolError
from dtst.evaluate import (PROTOCOL_A2G, PROTOCOL_AG, PROTOCOL_ALL,
                           PROTOCOL_G2A, PROTOCOLS, RetrievalReport,
                           SharedScoring, average_precision, evaluate_protocol,
                           inverse_negative_penalty, query_gallery_split,
                           rank_gallery, unit_rows, write_reports)
from dtst.model import VIEW_AERIAL, VIEW_GROUND

from conftest import per_query_ranks, whole_gallery_ranks

RNG = np.random.default_rng(11)


def brute_force_metrics(flags):
    """Definitional AP and INP computed the slow, obvious way."""
    flags = list(flags)
    total = sum(flags)
    ap_terms = []
    seen = 0
    for r, f in enumerate(flags, start=1):
        if f:
            seen += 1
            ap_terms.append(seen / r)
    last_rank = max(r for r, f in enumerate(flags, start=1) if f)
    return sum(ap_terms) / total, total / last_rank


def match_ranks(flags):
    """1-based positions of the True entries of ranked match flags."""
    return np.flatnonzero(flags) + 1


def test_hand_instance():
    ranks = match_ranks([True, False, True])
    assert average_precision(ranks) == pytest.approx(5 / 6, abs=1e-15)
    assert inverse_negative_penalty(ranks) == pytest.approx(2 / 3, abs=1e-15)


def test_perfect_and_worst_orderings():
    assert average_precision(match_ranks([True, True, False, False])) == 1.0
    assert inverse_negative_penalty(match_ranks([True, True, False])) == 1.0
    assert average_precision(match_ranks([False, False, True])) == pytest.approx(1 / 3)
    assert inverse_negative_penalty(match_ranks([False, False, True])) == pytest.approx(1 / 3)


def test_metrics_match_brute_force_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = rng.integers(1, 7)
        flags = rng.random(n) < 0.5
        if not flags.any():
            flags[rng.integers(0, n)] = True
        ap, inp = brute_force_metrics(flags)
        assert average_precision(match_ranks(flags)) == pytest.approx(ap, abs=1e-12)
        assert inverse_negative_penalty(match_ranks(flags)) == pytest.approx(inp, abs=1e-12)


def test_metrics_require_a_match():
    with pytest.raises(ProtocolError):
        average_precision(match_ranks([False, False]))
    with pytest.raises(ProtocolError):
        inverse_negative_penalty(match_ranks([False]))


@pytest.mark.parametrize("ranks", [
    [3, 1], [2, 2], [0], [-1, 2], [1, 3, 3], [1.0, 2.0], [[1, 2], [2, 1]], [[1, 2], [0, 3]],
])
def test_metrics_reject_ranks_that_are_not_ascending_integers_from_one(ranks):
    # [3, 1] would read AP 1.1667 and INP 2.0, [2, 2] AP 0.75, [0] INP inf
    for metric in (average_precision, inverse_negative_penalty):
        with pytest.raises(ProtocolError, match="strictly ascending"):
            metric(ranks)


def test_rank_gallery_orders_by_cosine():
    query = np.array([1.0, 0.0])
    gallery = np.array([[0.0, 1.0],    # cos 0
                        [2.0, 0.0],    # cos 1 (scale must not matter)
                        [1.0, 1.0]])   # cos ~0.707
    (ranks,) = whole_gallery_ranks(unit_rows(query[None]), [7], unit_rows(gallery),
                                   np.array([0, 7, 7]))
    assert ranks == [1, 2]


def test_rank_gallery_tie_prefers_lower_index():
    query = np.array([1.0, 0.0])
    gallery = np.array([[1.0, 0.0], [3.0, 0.0], [1.0, 0.0]])  # all cos 1
    (ranks,) = whole_gallery_ranks(unit_rows(query[None]), [1], unit_rows(gallery),
                                   np.array([0, 1, 1]))
    assert ranks == [2, 3]


def test_rank_gallery_in_parts_ties_in_whole_gallery_order():
    # whole gallery: [1, 0], [3, 0], [0, 1], [1, 1]; the first two tie at
    # cosine 1 and sit in different parts, so they rank by gallery index
    # whichever part is listed first
    query = unit_rows(np.array([[1.0, 0.0]]))
    rows = unit_rows(np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    ids = np.array([1, 1, 1, 0])
    split = [np.array([0, 2]), np.array([1, 3])]
    for cols in (split, split[::-1]):
        *parts, (whole,) = per_query_ranks(
            rank_gallery(query, [1], [(rows[c], ids[c], c) for c in cols]))
        parts = [ranks for ranks, in parts]
        assert parts == ([[1, 2], [1]] if cols is split else [[1], [1, 2]])
        assert whole == [1, 2, 4]


def test_rank_gallery_returns_one_array_and_a_count_per_target_and_query():
    rng = np.random.default_rng(3)
    queries, gallery = unit_rows(rng.normal(size=(5, 4))), unit_rows(rng.normal(size=(9, 4)))
    query_ids, gallery_ids = rng.integers(0, 3, 5), rng.integers(0, 3, 9)
    cols = [np.arange(0, 9, 2), np.arange(1, 9, 2)]
    ranks, counts = rank_gallery(queries, query_ids,
                                 [(gallery[c], gallery_ids[c], c) for c in cols])
    match = query_ids[:, None] == gallery_ids
    assert counts.dtype == np.int64
    assert counts.tolist() == [match[:, c].sum(axis=1).tolist() for c in cols] + [
        match.sum(axis=1).tolist()]
    assert ranks.shape == (counts.sum(),)
    assert (per_query_ranks((ranks, counts))[-1]
            == whole_gallery_ranks(queries, query_ids, gallery, gallery_ids))


def test_evaluate_protocol_scores_each_query_block_once(monkeypatch):
    embs, ids, views = _toy_population(num_ids=9, per_group=5, seed=4)
    blocks, scored = [], []
    rank, block_scores = evaluate.rank_gallery, evaluate._block_scores

    def ranking(*args):
        blocks.append(rank(*args))
        return blocks[-1]

    def scoring(ranks, counts):
        scored.append((ranks, counts))
        return block_scores(ranks, counts)

    monkeypatch.setattr(evaluate, "rank_gallery", ranking)
    monkeypatch.setattr(evaluate, "_block_scores", scoring)
    # blocks of 3 queries against 54 gallery rows, 2 per call: 6 calls
    monkeypatch.setattr(evaluate, "_BLOCK_SIMILARITIES", 200)
    monkeypatch.setattr(evaluate, "_CALL_BLOCKS", 2)
    shared = SharedScoring()
    for protocol in PROTOCOLS:
        evaluate_protocol(embs, ids, views, protocol, shared=shared)
    assert len(blocks) > 1 and len(scored) == len(blocks)
    for (ranks, counts), (got_ranks, got_counts) in zip(blocks, scored):
        assert got_ranks is ranks and got_counts.tolist() == counts.ravel().tolist()


def test_rank_gallery_parts_need_ids_and_columns():
    # the second part's columns: short, long, 2-D and a scalar
    rows = np.eye(2)
    for cols in ([2], [2, 3, 4], [[2, 3]], 2):
        with pytest.raises(DimensionError, match=r"gallery columns .* one entry per row \(2\)"):
            rank_gallery(rows, [0, 1], [(rows, [0, 1], [0, 1]), (rows, [0, 1], cols)])


@pytest.mark.parametrize("first, second", [
    ([1], [1]),      # a place twice: whole-gallery ranks [1, 1], no error
    ([0], [7]),      # a place beyond the gallery: a raw IndexError on the tie
    ([-1], [0]),     # a negative place
    ([0.0], [1.0]),  # places that are not integers
])
def test_rank_gallery_columns_must_partition_the_gallery(first, second):
    # two parts holding the same unit row, so the query's two matches tie
    row = unit_rows(np.array([[1.0, 1.0]]))
    with pytest.raises(DimensionError, match=r"each place 0 \.\.\. 1 once"):
        rank_gallery(row, [0], [(row, [0], first), (row, [0], second)])
    ranks, counts = rank_gallery(row, [0], [(row, [0], [0]), (row, [0], [1])])
    assert ranks.tolist() == [1, 1, 1, 2] and counts.tolist() == [[1], [1], [2]]


@pytest.mark.parametrize("gallery, gallery_ids, columns", [
    ([np.eye(2), np.zeros((0, 2))], [[0, 1], []], [[0, 1], []]),  # an empty part
    ([np.zeros((0, 2))], [[]], [[]]),                              # an empty gallery
])
def test_rank_gallery_rejects_a_part_without_rows(gallery, gallery_ids, columns):
    with pytest.raises(DimensionError, match="no rows"):
        rank_gallery(np.eye(2), [0, 1], list(zip(gallery, gallery_ids, columns)))


def test_rank_gallery_needs_a_part():
    with pytest.raises(DimensionError, match="at least one part"):
        rank_gallery(np.eye(2), [0, 1], [])


def test_rank_gallery_width_mismatch():
    with pytest.raises(DimensionError, match="widths"):
        rank_gallery(np.zeros((1, 3)), [0], [(np.zeros((2, 4)), np.array([0, 1]), np.arange(2))])


@pytest.mark.parametrize("queries, gallery, side", [
    (np.full(3, 0.5), np.eye(3), "queries"),          # one query as a 1-D row
    (np.eye(3), np.full(3, 0.5), "a gallery part"),   # one gallery row as a 1-D row
])
def test_rank_gallery_needs_rows_on_both_sides(queries, gallery, side):
    with pytest.raises(DimensionError, match=f"{side} .* rows"):
        rank_gallery(queries, [0, 1, 2], [(gallery, [0, 1, 2], np.arange(3))])


def test_rank_gallery_checks_every_part_before_ranking_any_block(monkeypatch):
    # 8 queries in blocks of one: the bad second part stops the call before
    # a block is ranked on either thread
    def ranking(*args):
        raise AssertionError("a block was ranked")

    monkeypatch.setattr(evaluate, "_rank_block", ranking)
    monkeypatch.setattr(evaluate, "_BLOCK_SIMILARITIES", 1)
    rows = np.eye(8)
    with pytest.raises(DimensionError, match="widths"):
        rank_gallery(rows, np.arange(8), [(rows, np.arange(8), np.arange(8)),
                                          (np.eye(1, 4), [0], [8])])


def test_rank_gallery_takes_id_lists():
    query = unit_rows(np.array([[1.0, 0.0]]))
    gallery = unit_rows(np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]))
    (ranks,), _ = per_query_ranks(rank_gallery(query, [0], [(gallery, [0, 1, 0], [0, 1, 2])]))
    assert ranks == [2, 3]


@pytest.mark.parametrize("query_ids, gallery_ids", [
    ([0], [0, 1, 0]),             # one query id for two queries
    ([0, 1, 2], [0, 1, 0]),       # three for two
    ([0, 1], [0, 1]),             # two gallery ids for three rows
    ([[0], [1]], [0, 1, 0]),      # 2-D ids
    ([0, 1], 0),                  # a scalar id
])
def test_rank_gallery_needs_one_id_per_row(query_ids, gallery_ids):
    queries, gallery = np.eye(2), np.eye(2)[[0, 1, 0]]
    with pytest.raises(DimensionError, match="one entry per row"):
        rank_gallery(queries, query_ids, [(gallery, gallery_ids, np.arange(len(gallery)))])


def dyadic_rows(rng, n, pool_size, d=16):
    """n rows drawn from a pool of `pool_size`, each pool row 0, 1, 4 or 16
    entries of +-1 (norm 0, 1, 2 or 4), every row scaled by a power of two.
    All cosines between such rows are exact in float64 whatever the
    summation order, so duplicated and scaled rows tie exactly, and zero
    rows have similarity 0 to everything."""
    pool = np.zeros((pool_size, d))
    for row in pool:
        cols = rng.choice(d, rng.choice([0, 1, 4, 16]), replace=False)
        row[cols] = rng.choice([-1.0, 1.0], len(cols))
    return pool[rng.integers(0, pool_size, n)] * 2.0 ** rng.integers(-3, 4, (n, 1))


def oracle_match_ranks(queries, query_ids, gallery, gallery_ids):
    """Per query, the 1-based positions of its matches in the gallery sorted
    by (-cosine, index), one Python sort per query."""
    g_norms = [np.linalg.norm(g) for g in gallery]
    out = []
    for q, qid in zip(queries, query_ids):
        q_norm = np.linalg.norm(q)
        sims = []
        for g, g_norm in zip(gallery, g_norms):
            norms = q_norm * g_norm
            sims.append(float(q @ g) / norms if norms else 0.0)
        order = sorted(range(len(gallery)), key=lambda j: (-sims[j], j))
        out.append([r for r, j in enumerate(order, 1) if gallery_ids[j] == qid])
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_queries=st.integers(1, 12),
       gallery_size=st.integers(1, 40), pool_size=st.integers(1, 12),
       num_ids=st.integers(1, 6))
def test_rank_gallery_matches_sorted_oracle_under_exact_ties(
        seed, num_queries, gallery_size, pool_size, num_ids):
    rng = np.random.default_rng(seed)
    rows = dyadic_rows(rng, num_queries + gallery_size, pool_size)
    queries, gallery = rows[:num_queries], rows[num_queries:]
    # ids beyond the gallery's leave some queries without a match
    query_ids = rng.integers(0, num_ids + 1, num_queries)
    gallery_ids = rng.integers(0, num_ids, gallery_size)
    got = whole_gallery_ranks(unit_rows(queries), query_ids, unit_rows(gallery), gallery_ids)
    want = oracle_match_ranks(queries, query_ids, gallery, gallery_ids)
    assert got == want
    # the same gallery in 1 to 3 parts of ascending columns
    num_parts = min(int(rng.integers(1, 4)), gallery_size)
    labels = rng.permutation(np.arange(gallery_size) % num_parts)
    columns = [np.flatnonzero(labels == p) for p in range(num_parts)]
    unit = unit_rows(gallery)
    ranked = per_query_ranks(rank_gallery(unit_rows(queries), query_ids,
                                          [(unit[c], gallery_ids[c], c) for c in columns]))
    assert len(ranked) == num_parts + 1
    for got, cols in zip(ranked, columns):
        want = oracle_match_ranks(queries, query_ids, gallery[cols], gallery_ids[cols])
        assert got == want
    assert ranked[-1] == oracle_match_ranks(queries, query_ids, gallery, gallery_ids)


def gallery_with_equal_unit_rows(rng, size, copies, d=16):
    """`size` normal rows of which those at `copies` are power-of-two
    multiples of one dyadic row, so that their unit rows are bitwise equal."""
    gallery = rng.normal(size=(size, d))
    row = rng.integers(-8, 9, size=d) / 4.0
    gallery[copies] = row * 2.0 ** rng.integers(-2, 3, (len(copies), 1))
    return gallery


def test_one_query_ranks_as_inside_its_block():
    # gallery columns 16, 69, 80 and 81 hold bitwise-equal unit rows; with
    # OpenBLAS, the one-row product (GEMV) of query 14 gives columns 80 and 81
    # a larger value than 16 and 69, where the 76-row product ties all four
    rng = np.random.default_rng(0)
    gallery = unit_rows(gallery_with_equal_unit_rows(rng, 83, [16, 69, 80, 81]))
    queries = unit_rows(rng.normal(size=(76, 16)))
    gallery_ids = np.arange(83) % 5
    gallery_ids[[16, 69, 80, 81]] = [1, 1, 0, 0]
    query_ids = np.zeros(76, dtype=np.int64)
    block = whole_gallery_ranks(queries, query_ids, gallery, gallery_ids)
    (alone,) = whole_gallery_ranks(queries[14:15], query_ids[14:15], gallery, gallery_ids)
    assert alone == block[14]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_queries=st.integers(2, 80),
       gallery_size=st.integers(2, 90), num_copies=st.integers(2, 6),
       num_ids=st.integers(1, 4), d=st.integers(2, 24))
def test_each_query_alone_ranks_as_in_the_whole_block(seed, num_queries, gallery_size,
                                                     num_copies, num_ids, d):
    rng = np.random.default_rng(seed)
    copies = rng.choice(gallery_size, min(num_copies, gallery_size), replace=False)
    gallery = unit_rows(gallery_with_equal_unit_rows(rng, gallery_size, copies, d))
    queries = unit_rows(rng.normal(size=(num_queries, d)))
    query_ids = rng.integers(0, num_ids, num_queries)
    gallery_ids = rng.integers(0, num_ids, gallery_size)
    block = whole_gallery_ranks(queries, query_ids, gallery, gallery_ids)
    for i, want in enumerate(block):
        (got,) = whole_gallery_ranks(queries[i:i + 1], query_ids[i:i + 1], gallery, gallery_ids)
        assert got == want, i


def population_with_cross_view_copies(rng, num_ids):
    """(embeddings, ids, views) of `num_ids` identities with 0 to 5 rows per
    view; identity 0 is aerial only, so it has no ground gallery row. Rows
    are dyadic (exact cosines), a third of the ground rows are power-of-two
    copies of aerial rows, so gallery rows of both views tie exactly, and
    every fifth row is a normal draw, whose similarities tie with nothing."""
    sizes = rng.integers(0, 6, (num_ids, 2))
    sizes[0] = [rng.integers(1, 6), 0]
    ids = np.repeat(np.arange(num_ids), sizes.sum(axis=1))
    views = np.concatenate([np.repeat([VIEW_AERIAL, VIEW_GROUND], n) for n in sizes])
    perm = rng.permutation(len(ids))
    ids, views = ids[perm], views[perm]
    embs = dyadic_rows(rng, len(ids), pool_size=8)
    embs[::5] = rng.normal(size=(len(embs[::5]), 16))
    aerial, ground = np.flatnonzero(views == VIEW_AERIAL), np.flatnonzero(views == VIEW_GROUND)
    copies = ground[:len(ground) // 3]
    embs[copies] = (embs[rng.choice(aerial, len(copies))]
                    * 2.0 ** rng.integers(-2, 3, (len(copies), 1)))
    return embs, ids, views


def protocol_outcome(*args, **kwargs):
    """A report's fields, or the error it raised instead (a protocol with
    no gallery view left, say, or rows that all came out identical)."""
    try:
        return vars(evaluate_protocol(*args, **kwargs))
    except (ProtocolError, NumericError) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_ids=st.integers(1, 9),
       block=st.integers(1, 120), split_seed=st.integers(0, 3))
# a gallery part of one row, whose similarity must tie bit for bit with a
# copy of its row in the other part
@example(seed=34, num_ids=2, block=1, split_seed=0)
def test_shared_scoring_equals_six_standalone_calls(seed, num_ids, block, split_seed):
    # `block` similarities per query block: below the gallery's size, each
    # block holds one query
    rng = np.random.default_rng(seed)
    embs, ids, views = population_with_cross_view_copies(rng, num_ids)
    whole_calls = []
    rank = evaluate.rank_gallery

    def keeping_whole(queries, query_ids, parts):
        ranks, counts = rank(queries, query_ids, parts)
        whole_calls.append((queries, query_ids, parts, per_query_ranks((ranks, counts))[-1]))
        return ranks, counts

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "_BLOCK_SIMILARITIES", block)
        alone = [protocol_outcome(embs, ids, views, p, split_seed) for p in PROTOCOLS]
        mp.setattr(evaluate, "rank_gallery", keeping_whole)
        shared = SharedScoring()
        together = [protocol_outcome(embs, ids, views, p, split_seed, shared=shared)
                    for p in PROTOCOLS]
    assert together == alone
    # ALL's ranks are those of one ranking in the whole gallery split
    for queries, query_ids, parts, ranked in whole_calls:
        size = sum(len(rows) for rows, _, _ in parts)
        whole, whole_ids = np.empty((size, queries.shape[1])), np.empty(size, dtype=ids.dtype)
        for rows, part_ids, cols in parts:
            whole[cols], whole_ids[cols] = rows, part_ids
        assert ranked == whole_gallery_ranks(queries, query_ids, whole, whole_ids)


def ranking_threads(monkeypatch):
    """Wrap `evaluate._rank_block`, which ranks one block of a
    `rank_gallery` call, to record the threads it runs on."""
    threads = set()
    rank_block = evaluate._rank_block

    def recording(*args):
        threads.add(threading.get_ident())
        return rank_block(*args)

    monkeypatch.setattr(evaluate, "_rank_block", recording)
    return threads


@pytest.mark.parametrize("workers", [1, 2])
def test_one_call_over_several_blocks_is_the_per_block_calls_merged(workers, monkeypatch):
    # 28 queries in blocks of 3 (the last of one row) against a gallery in
    # three parts, one of them a single row; gallery columns 2, 9, 17 and 30
    # hold bitwise-equal unit rows, which tie, and query ids draw from two
    # identities, so most queries match some of them
    monkeypatch.setattr(T, "_worker_count", lambda: workers)
    monkeypatch.setattr(evaluate, "_BLOCK_SIMILARITIES", 3 * 41)
    rng = np.random.default_rng(3)
    gallery = unit_rows(gallery_with_equal_unit_rows(rng, 41, [2, 9, 17, 30]))
    gallery_ids = rng.integers(0, 2, 41)
    queries, query_ids = unit_rows(rng.normal(size=(28, 16))), rng.integers(0, 2, 28)
    places = rng.permutation(41)
    parts = [(gallery[c], gallery_ids[c], c) for c in np.split(places, [20, 40])]
    per_block = [rank_gallery(queries[s:s + 3], query_ids[s:s + 3], parts)
                 for s in range(0, 28, 3)]
    threads = ranking_threads(monkeypatch)
    ranks, counts = rank_gallery(queries, query_ids, parts)
    assert len(threads) == workers
    # the documented layout: by target (each part, then the whole gallery),
    # then query
    assert counts.tolist() == np.concatenate([c for _, c in per_block], axis=1).tolist()
    merged = [sum((per_query_ranks(b)[t] for b in per_block), []) for t in range(4)]
    assert per_query_ranks((ranks, counts)) == merged
    assert ranks.tolist() == [r for target in merged for query in target for r in query]


def test_the_six_reports_are_the_same_on_one_and_two_threads(monkeypatch):
    # blocks of one query, and about half of the rows are queries, so a
    # pass makes several calls of many blocks
    rng = np.random.default_rng(7)
    embs, ids, views = population_with_cross_view_copies(rng, 30)
    monkeypatch.setattr(evaluate, "_BLOCK_SIMILARITIES", 1)
    threads = ranking_threads(monkeypatch)
    reports = []
    for workers in (1, 2):
        monkeypatch.setattr(T, "_worker_count", lambda: workers)
        shared = SharedScoring()
        reports.append([protocol_outcome(embs, ids, views, p, shared=shared)
                        for p in PROTOCOLS])
    assert len(threads) == 2 and len(ids) > 2 * 2 * evaluate._CALL_BLOCKS
    assert all(isinstance(r, dict) for r in reports[0])
    assert reports[0] == reports[1]


def counting_similarities(monkeypatch):
    """Wrap `rank_gallery`, the one ranking pass, to count the query-row by
    gallery-row similarities it computes; returns the running count."""
    count = [0]
    rank = evaluate.rank_gallery

    def counting(queries, query_ids, parts):
        count[0] += len(queries) * sum(len(rows) for rows, _, _ in parts)
        return rank(queries, query_ids, parts)

    monkeypatch.setattr(evaluate, "rank_gallery", counting)
    return count


def test_each_query_view_is_ranked_once_per_eval(monkeypatch):
    embs, ids, views = _toy_population(num_ids=9, per_group=5, seed=4)
    q_mask, g_mask = query_gallery_split(ids, views, 0)
    count = counting_similarities(monkeypatch)
    shared = SharedScoring()
    for protocol in PROTOCOLS:
        evaluate_protocol(embs, ids, views, protocol, shared=shared)
    assert count[0] == q_mask.sum() * g_mask.sum()


def test_a_standalone_call_ranks_every_query_in_the_whole_gallery(monkeypatch):
    # one pass over every query of the split, whatever views the protocol keeps
    embs, ids, views = _toy_population(num_ids=9, per_group=5, seed=4)
    q_mask, g_mask = query_gallery_split(ids, views, 0)
    count = counting_similarities(monkeypatch)
    for protocol in PROTOCOLS:
        count[0] = 0
        evaluate_protocol(embs, ids, views, protocol)
        assert count[0] == q_mask.sum() * g_mask.sum(), protocol


def test_zero_embedding_rows_are_a_protocol_error():
    # the empty gallery is found before any ranking is tried
    for protocol in PROTOCOLS:
        with pytest.raises(ProtocolError, match="empty gallery"):
            evaluate_protocol(np.zeros((0, 4)), [], [], protocol)
    assert_each_shared_call_raises(np.zeros((0, 4)), [], [], ProtocolError, "empty gallery")


def test_shared_scoring_checks_the_embeddings_once(monkeypatch):
    embs, ids, views = _toy_population()
    calls = []
    unit = evaluate.unit_rows
    monkeypatch.setattr(evaluate, "unit_rows", lambda x: calls.append(len(x)) or unit(x))
    shared = SharedScoring()
    for protocol in PROTOCOLS:
        evaluate_protocol(embs, ids, views, protocol, shared=shared)
    assert calls == [len(embs)]


def test_shared_scoring_belongs_to_its_first_inputs():
    embs, ids, views = _toy_population()
    shared = SharedScoring()
    evaluate_protocol(embs, ids, views, PROTOCOL_ALL, shared=shared)
    for args, seed in (((embs.copy(), ids, views), 0), ((embs, ids, views), 1)):
        with pytest.raises(ProtocolError, match="belongs to other"):
            evaluate_protocol(*args, PROTOCOL_AG, split_seed=seed, shared=shared)


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "0", None])
def test_a_split_seed_must_be_a_non_negative_integer(seed):
    embs, ids, views = _toy_population()
    with pytest.raises(DomainError, match="split seed must be an integer >= 0"):
        query_gallery_split(ids, views, seed)
    with pytest.raises(DomainError, match="split seed"):
        evaluate_protocol(embs, ids, views, PROTOCOL_ALL, split_seed=seed)


def test_a_numpy_integer_split_seed_splits_as_its_python_int():
    embs, ids, views = _toy_population()
    for seed in (np.int64(3), np.uint8(3)):
        assert all(np.array_equal(a, b) for a, b in zip(query_gallery_split(ids, views, seed),
                                                        query_gallery_split(ids, views, 3)))
        assert (evaluate_protocol(embs, ids, views, PROTOCOL_AG, split_seed=seed)
                == evaluate_protocol(embs, ids, views, PROTOCOL_AG, split_seed=3))


def test_rank_gallery_zero_query_ranks_matches_in_gallery_order():
    gallery = np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
    ranks, none = whole_gallery_ranks(np.zeros((2, 2)), [5, 9], unit_rows(gallery),
                                      np.array([0, 5, 5, 0]))
    assert ranks == [2, 3]  # all similarities 0: index order
    assert none == []


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), big=st.integers(258, 290),
       block=st.integers(1, 2000))
def test_block_scoring_equals_the_per_query_reference_bit_for_bit(seed, big, block):
    # identity 0 has `big` rows, so ALL queries of it match 129 or more
    # gallery rows; identity 1 is aerial only, so its A->G queries match
    # nothing; the others have 1 to 6 rows per view, so counts are ragged.
    # Rows are shuffled, so every kind of query sits inside some block.
    # Queries are dyadic rows, and every third gallery row is untied: an
    # untied query would meet ties among scaled copies of one dyadic row,
    # which a GEMM need not break the way the oracle's dot products do.
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 7, (8, 2))
    ids = np.concatenate([np.zeros(big, int), np.ones(6, int),
                          np.repeat(np.arange(2, 10), sizes.sum(axis=1))])
    views = np.concatenate([np.arange(big) % 2, np.full(6, VIEW_AERIAL)]
                           + [np.repeat([VIEW_AERIAL, VIEW_GROUND], n) for n in sizes])
    perm = rng.permutation(len(ids))
    ids, views = ids[perm], views[perm]
    q_mask, g_mask = query_gallery_split(ids, views, seed % 7)
    embs = dyadic_rows(rng, len(ids), pool_size=24)
    untied = g_mask & (np.arange(len(ids)) % 3 == 0)
    embs[untied] = rng.normal(size=(untied.sum(), 16))
    side = {v: views == v for v in (VIEW_AERIAL, VIEW_GROUND)}
    directions = {PROTOCOL_ALL: [(None, None, q_mask, g_mask)],
                  PROTOCOL_AG: [(q, g, q_mask & side[q], g_mask & side[g])
                                for q, g in ((VIEW_AERIAL, VIEW_GROUND),
                                             (VIEW_GROUND, VIEW_AERIAL))]}
    for protocol, sides in directions.items():
        shared = SharedScoring()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluate, "_BLOCK_SIMILARITIES", block)
            rep = evaluate_protocol(embs, ids, views, protocol, split_seed=seed % 7,
                                    shared=shared)
        rank1s, num_queries, excluded = [], 0, 0
        for q_view, g_view, qm, gm in sides:
            ranks = oracle_match_ranks(embs[qm], ids[qm], embs[gm], ids[gm])
            scored = [r for r in ranks if r]
            num_queries, excluded = num_queries + len(scored), excluded + len(ranks) - len(scored)
            rank1s.append(float(np.mean([r[0] == 1 for r in scored])))
            # each query's scores, in query order, bit for bit
            ap, inp, hit, has = shared.direction(q_view, g_view)
            assert has.tolist() == [bool(r) for r in ranks]
            assert ap[has].tolist() == [average_precision(r) for r in scored]
            assert inp[has].tolist() == [inverse_negative_penalty(r) for r in scored]
            assert hit[has].tolist() == [r[0] == 1 for r in scored]
        assert max(map(len, scored)) > 128 or protocol == PROTOCOL_AG
        assert rep.rank1 == float(np.mean(rank1s))
        assert (rep.num_queries, rep.num_excluded) == (num_queries, excluded)
        json.dumps(vars(rep))  # plain Python numbers, as `write_reports` needs
    assert rep.num_excluded > 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), n=st.integers(1, 300))
def test_metrics_of_a_rank_matrix_equal_its_rows_bit_for_bit(seed, rows, n):
    rng = np.random.default_rng(seed)
    ranks = np.sort(rng.choice(3 * n, (rows, n)), axis=1) + np.arange(1, n + 1)
    ap, inp = average_precision(ranks), inverse_negative_penalty(ranks)
    assert ap.tolist() == [average_precision(r) for r in ranks]
    assert inp.tolist() == [inverse_negative_penalty(r) for r in ranks]


def test_evaluate_protocol_takes_one_ap_call_per_block_and_match_count(monkeypatch):
    # every query of this population has 4 gallery matches in each view and
    # 8 in the whole gallery, so each `rank_gallery` call's ranks take two AP
    # calls, one per match count, not one per query and list, however many
    # query blocks the call holds
    embs, ids, views = _toy_population(num_ids=32, per_group=8, seed=2)
    counts, calls = [], []
    rank, ap = evaluate.rank_gallery, evaluate.average_precision

    def ranking(*args):
        ranks, matches = rank(*args)  # per gallery view, then the whole gallery
        counts.append(len(set(matches[-1].tolist()) - {0}))
        return ranks, matches

    def counting(ranks):
        calls.append(np.shape(ranks))
        return ap(ranks)

    monkeypatch.setattr(evaluate, "rank_gallery", ranking)
    monkeypatch.setattr(evaluate, "average_precision", counting)
    # 256 queries in blocks of 4 against 256 gallery rows: 64 blocks
    monkeypatch.setattr(evaluate, "_BLOCK_SIMILARITIES", 4 * 256)
    rep = evaluate_protocol(embs, ids, views, PROTOCOL_ALL, split_seed=0)
    per_call = 4 * evaluate._CALL_BLOCKS
    assert len(counts) == 256 // per_call > 1 and set(counts) == {1}
    assert calls == [(2 * per_call, 4), (per_call, 8)] * len(counts)
    assert rep.num_queries == 256


def test_evaluate_protocol_over_several_blocks_matches_the_oracle():
    # about 1024 queries against a 1024-row gallery: several query blocks
    rng = np.random.default_rng(5)
    n = 2048
    ids = np.repeat(np.arange(64), n // 64)
    views = np.tile([VIEW_AERIAL, VIEW_GROUND], n // 2)
    embs = dyadic_rows(rng, n, pool_size=96)
    embs[::3] = rng.normal(size=(len(embs[::3]), 16))  # and untied rows
    q_mask, g_mask = query_gallery_split(ids, views, 0)
    block = evaluate._BLOCK_SIMILARITIES // g_mask.sum()
    assert q_mask.sum() > 3 * block
    shared = SharedScoring()
    rep = evaluate_protocol(embs, ids, views, PROTOCOL_ALL, split_seed=0, shared=shared)

    q, g = embs[q_mask], embs[g_mask]
    sims = unit_rows(q) @ unit_rows(g).T
    aps, inps, hits, excluded = [], [], [], 0
    for row, qid in zip(sims, ids[q_mask]):
        order = np.lexsort((np.arange(len(row)), -row))
        ranks = np.flatnonzero(ids[g_mask][order] == qid) + 1
        if len(ranks) == 0:
            excluded += 1
            continue
        aps.append(np.mean(np.arange(1, len(ranks) + 1) / ranks))
        inps.append(len(ranks) / ranks[-1])
        hits.append(ranks[0] == 1)
    assert rep.num_queries == len(aps) and rep.num_excluded == excluded
    ap, inp, hit, has = shared.direction(None, None)
    assert np.allclose(ap[has], aps, rtol=0, atol=1e-12)
    assert np.allclose(inp[has], inps, rtol=0, atol=1e-12)
    assert hit[has].tolist() == hits
    assert rep.rank1 == np.mean(hits)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_protocol_rejects_non_finite_embeddings(bad):
    embs, ids, views = _toy_population()
    embs[[1, 7], 3] = bad
    with pytest.raises(NumericError, match="2 of 48 embedding rows"):
        evaluate_protocol(embs, ids, views, PROTOCOL_ALL)
    assert_each_shared_call_raises(embs, ids, views, NumericError, "2 of 48 embedding rows")


def test_evaluate_protocol_rejects_rows_whose_norm_overflows():
    # finite entries whose squares overflow: divided by an infinite norm,
    # the rows would become zero rows and rank in gallery order
    embs, ids, views = _toy_population()
    ref = evaluate_protocol(embs, ids, views, PROTOCOL_ALL)
    big = evaluate_protocol(embs * 1e100, ids, views, PROTOCOL_ALL)
    assert (big.rank1, big.mean_ap) == pytest.approx((ref.rank1, ref.mean_ap))
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="L2 norm"):
        evaluate_protocol(embs * 1e200, ids, views, PROTOCOL_ALL)
    with np.errstate(over="ignore"):
        assert_each_shared_call_raises(embs * 1e200, ids, views, NumericError,
                                       "48 of 48 embedding rows have an L2 norm")


def test_evaluate_protocol_rejects_identical_rows():
    # every similarity would tie, and the ranks would be gallery order
    embs, ids, views = _toy_population()
    same = np.broadcast_to(embs[3], embs.shape)
    for protocol in PROTOCOLS:
        with pytest.raises(NumericError, match="identical"):
            evaluate_protocol(same, ids, views, protocol)
    assert_each_shared_call_raises(same, ids, views, NumericError, "identical")
    two_rows = same.copy()
    two_rows[5, 0] = np.nextafter(two_rows[5, 0], np.inf)  # one ulp apart is enough
    evaluate_protocol(two_rows, ids, views, PROTOCOL_ALL)


def test_evaluate_protocol_rejects_mismatched_rows():
    embs, ids, views = _toy_population()
    with pytest.raises(DimensionError, match="one row per id"):
        evaluate_protocol(embs[:-1], ids, views, PROTOCOL_ALL)
    with pytest.raises(DimensionError, match="one row per id"):
        evaluate_protocol(embs[:, 0], ids, views, PROTOCOL_ALL)
    assert_each_shared_call_raises(embs[:-1], ids, views, DimensionError, "one row per id")


def assert_each_shared_call_raises(embs, ids, views, error, match):
    # the first call of an eval's shared scoring checks the embeddings, so
    # it raises; a call after it checks again, as nothing was kept
    shared = SharedScoring()
    for protocol in PROTOCOLS:
        with pytest.raises(error, match=match):
            evaluate_protocol(embs, ids, views, protocol, shared=shared)


def _toy_population(num_ids=6, per_group=4, d=8, seed=0):
    """Clustered embeddings: each identity a direction, small view shift."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(num_ids, d)) * 3
    shift = rng.normal(size=d) * 0.5
    embs, ids, views = [], [], []
    for y in range(num_ids):
        for v in (VIEW_AERIAL, VIEW_GROUND):
            for _ in range(per_group):
                embs.append(centers[y] + v * shift + rng.normal(size=d) * 0.3)
                ids.append(y)
                views.append(v)
    return np.array(embs), np.array(ids), np.array(views)


def test_query_gallery_split_is_balanced_and_seeded():
    _, ids, views = _toy_population()
    qa, ga = query_gallery_split(ids, views, seed=0)
    qb, _ = query_gallery_split(ids, views, seed=0)
    qc, _ = query_gallery_split(ids, views, seed=1)
    assert np.array_equal(qa, qb)
    assert not np.array_equal(qa, qc)
    assert not (qa & ga).any() and (qa | ga).all()
    for y in np.unique(ids):
        for v in (VIEW_AERIAL, VIEW_GROUND):
            grp = (ids == y) & (views == v)
            assert qa[grp].sum() == 2  # half of each 4-member group


@pytest.mark.parametrize("ids, views", [
    ([1, 2, 3], [0, 1]),
    ([1, 2], [0, 1, 0]),
    ([[1, 2]], [[0, 1]]),
])
def test_query_gallery_split_needs_one_id_and_view_per_sample(ids, views):
    with pytest.raises(DimensionError, match="one entry per sample"):
        query_gallery_split(ids, views, 0)


def nested_loop_split(ids, views, seed):
    """The per-(id, view) loop `query_gallery_split` used to run."""
    ids, views = np.asarray(ids), np.asarray(views)
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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 80),
       id_pool=st.lists(st.integers(-5, 1000), min_size=1, max_size=9, unique=True),
       view_pool=st.sampled_from([(0, 1), (1,), (0, 1, 2), (-1, 0, 1, 7)]))
def test_query_gallery_split_keeps_the_nested_loop_masks(seed, n, id_pool, view_pool):
    # unsorted, non-contiguous ids; (id, view) groups missing at random;
    # view values outside {0, 1}
    rng = np.random.default_rng(seed)
    ids = rng.choice(id_pool, n)
    views = rng.choice(view_pool, n)
    got, want = query_gallery_split(ids, views, seed), nested_loop_split(ids, views, seed)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_evaluate_protocol_on_separable_population():
    embs, ids, views = _toy_population()
    for protocol in PROTOCOLS:
        rep = evaluate_protocol(embs, ids, views, protocol, split_seed=0)
        assert rep.protocol == protocol
        assert rep.rank1 > 0.8
        assert 0.0 <= rep.mean_ap <= 1.0
        assert 0.0 <= rep.mean_inp <= 1.0
        assert rep.num_queries > 0


def test_bidirectional_protocol_averages_directions():
    embs, ids, views = _toy_population(seed=3)
    ag = evaluate_protocol(embs, ids, views, PROTOCOL_AG, split_seed=0)
    a2g = evaluate_protocol(embs, ids, views, PROTOCOL_A2G, split_seed=0)
    g2a = evaluate_protocol(embs, ids, views, PROTOCOL_G2A, split_seed=0)
    assert ag.rank1 == pytest.approx((a2g.rank1 + g2a.rank1) / 2, abs=1e-12)
    assert ag.mean_ap == pytest.approx((a2g.mean_ap + g2a.mean_ap) / 2, abs=1e-12)
    assert ag.mean_inp == pytest.approx((a2g.mean_inp + g2a.mean_inp) / 2, abs=1e-12)
    assert ag.num_queries == a2g.num_queries + g2a.num_queries


def test_cross_view_gallery_excludes_query_view():
    # identity 0 exists only in the aerial view: every A->G query for it has
    # no gallery match and is excluded rather than scored
    embs, ids, views = _toy_population(num_ids=3)
    keep = ~((ids == 0) & (views == VIEW_GROUND))
    rep = evaluate_protocol(embs[keep], ids[keep], views[keep],
                            PROTOCOL_A2G, split_seed=0)
    assert rep.num_excluded > 0


def test_unknown_protocol_rejected():
    embs, ids, views = _toy_population()
    with pytest.raises(ProtocolError, match="unknown protocol"):
        evaluate_protocol(embs, ids, views, "B->C")


def test_empty_side_raises_protocol_error():
    embs, ids, views = _toy_population()
    aerial_only = views == VIEW_AERIAL
    with pytest.raises(ProtocolError, match="empty"):
        evaluate_protocol(embs[aerial_only], ids[aerial_only],
                          views[aerial_only], PROTOCOL_A2G, split_seed=0)


def test_protocol_all_uses_whole_split():
    embs, ids, views = _toy_population()
    rep = evaluate_protocol(embs, ids, views, PROTOCOL_ALL, split_seed=0)
    q_mask, _ = query_gallery_split(ids, views, 0)
    assert rep.num_queries + rep.num_excluded == q_mask.sum()


def test_reports_round_trip(tmp_path):
    reports = [RetrievalReport(protocol="ALL", rank1=0.5, mean_ap=0.25,
                               mean_inp=0.125, num_queries=10, num_excluded=1),
               RetrievalReport(protocol="A<->G", rank1=1.0, mean_ap=1.0,
                               mean_inp=1.0, num_queries=4, num_excluded=0)]
    path = tmp_path / "reports.jsonl"
    write_reports(path, reports)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    back = [RetrievalReport(protocol=r["protocol"], rank1=r["rank1"], mean_ap=r["mAP"],
                            mean_inp=r["mINP"], num_queries=r["num_queries"],
                            num_excluded=r["num_excluded"])
            for r in records]
    assert back == reports


@pytest.mark.parametrize("batch_size, count, error, match", [
    (0, 4, ContractError, "batch_size must be at least 1, got 0"),
    (-1, 4, ContractError, "batch_size must be at least 1, got -1"),
    (1.5, 4, ContractError, "batch_size must be at least 1, got 1.5"),
    (2.0, 4, ContractError, "batch_size must be at least 1, got 2.0"),
    (64, 0, DimensionError, "no samples to embed"),
], ids=["zero_batch", "negative_batch", "fractional_batch", "float_batch", "no_samples"])
def test_embed_samples_rejects_bad_input_before_any_forward(batch_size, count, error, match,
                                                            monkeypatch):
    forwards = []
    monkeypatch.setattr(model, "model_forward", lambda *a, **k: forwards.append(a))
    samples = data.generate_dataset(data.GenConfig(num_ids=2, samples_per_id_per_view=1,
                                                   grid=(2, 2), patch_dim=3, k_sig=1, seed=0))
    cfg = model.ModelConfig(num_identities=2, num_blocks=1, embed_dim=4, patch_grid=(2, 2),
                            patch_dim=3)
    with pytest.raises(error, match=match):
        evaluate.embed_samples(cfg, model.init_params(cfg, 0), samples[:count], batch_size)
    assert forwards == []
