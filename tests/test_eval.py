"""Retrieval metrics against brute-force definitional oracles, plus the
view-protocol plumbing."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtst import evaluate
from dtst.errors import DimensionError, NumericError, ProtocolError
from dtst.evaluate import (PROTOCOL_A2G, PROTOCOL_AG, PROTOCOL_ALL,
                           PROTOCOL_G2A, PROTOCOLS, RetrievalReport,
                           average_precision, evaluate_protocol,
                           inverse_negative_penalty, query_gallery_split,
                           rank_gallery, unit_rows, write_reports)
from dtst.model import VIEW_AERIAL, VIEW_GROUND

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


def test_rank_gallery_orders_by_cosine():
    query = np.array([1.0, 0.0])
    gallery = np.array([[0.0, 1.0],    # cos 0
                        [2.0, 0.0],    # cos 1 (scale must not matter)
                        [1.0, 1.0]])   # cos ~0.707
    ranks, = rank_gallery(unit_rows(query[None]), [7], unit_rows(gallery),
                          np.array([0, 7, 7]))
    assert ranks.tolist() == [1, 2]


def test_rank_gallery_tie_prefers_lower_index():
    query = np.array([1.0, 0.0])
    gallery = np.array([[1.0, 0.0], [3.0, 0.0], [1.0, 0.0]])  # all cos 1
    ranks, = rank_gallery(unit_rows(query[None]), [1], unit_rows(gallery),
                          np.array([0, 1, 1]))
    assert ranks.tolist() == [2, 3]


def test_rank_gallery_width_mismatch():
    with pytest.raises(DimensionError, match="widths"):
        rank_gallery(np.zeros((1, 3)), [0], np.zeros((2, 4)), np.array([0, 1]))


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
    out = []
    for q, qid in zip(queries, query_ids):
        sims = []
        for g in gallery:
            norms = np.linalg.norm(q) * np.linalg.norm(g)
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
    got = rank_gallery(unit_rows(queries), query_ids, unit_rows(gallery), gallery_ids)
    want = oracle_match_ranks(queries, query_ids, gallery, gallery_ids)
    assert [r.tolist() for r in got] == want


def test_rank_gallery_zero_query_ranks_matches_in_gallery_order():
    gallery = np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
    ranks, none = rank_gallery(np.zeros((2, 2)), [5, 9], unit_rows(gallery),
                               np.array([0, 5, 5, 0]))
    assert ranks.tolist() == [2, 3]  # all similarities 0: index order
    assert none.size == 0


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
    rep = evaluate_protocol(embs, ids, views, PROTOCOL_ALL, split_seed=0)

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
    assert np.allclose(rep.per_query_ap, aps, rtol=0, atol=1e-12)
    assert np.allclose(rep.per_query_inp, inps, rtol=0, atol=1e-12)
    assert rep.rank1 == np.mean(hits)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_protocol_rejects_non_finite_embeddings(bad):
    embs, ids, views = _toy_population()
    embs[[1, 7], 3] = bad
    with pytest.raises(NumericError, match="2 of 48 embedding rows"):
        evaluate_protocol(embs, ids, views, PROTOCOL_ALL)


def test_evaluate_protocol_rejects_rows_whose_norm_overflows():
    # finite entries whose squares overflow: divided by an infinite norm,
    # the rows would become zero rows and rank in gallery order
    embs, ids, views = _toy_population()
    ref = evaluate_protocol(embs, ids, views, PROTOCOL_ALL)
    big = evaluate_protocol(embs * 1e100, ids, views, PROTOCOL_ALL)
    assert (big.rank1, big.mean_ap) == pytest.approx((ref.rank1, ref.mean_ap))
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="L2 norm"):
        evaluate_protocol(embs * 1e200, ids, views, PROTOCOL_ALL)


def test_evaluate_protocol_rejects_mismatched_rows():
    embs, ids, views = _toy_population()
    with pytest.raises(DimensionError, match="one row per id"):
        evaluate_protocol(embs[:-1], ids, views, PROTOCOL_ALL)
    with pytest.raises(DimensionError, match="one row per id"):
        evaluate_protocol(embs[:, 0], ids, views, PROTOCOL_ALL)


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
