"""Hand instances for the benchmark's retrieval oracle."""

import numpy as np
import pytest

import oracle


def test_ap_inp_hand_instances():
    ap, inp = oracle.ap_inp([[1, 0, 1], [1, 1, 0], [0, 1, 0]])
    assert ap == pytest.approx([5 / 6, 1.0, 0.5])
    assert inp == pytest.approx([2 / 3, 1.0, 0.5])
    assert ap[0] == pytest.approx(0.8333, abs=1e-4)
    assert inp[0] == pytest.approx(0.6667, abs=1e-4)


def test_query_mask_takes_half_of_every_group():
    ids = np.repeat([0, 1, 2], 4)
    views = np.tile([0, 0, 1, 1], 3)
    mask = oracle.query_mask(ids, views, seed=3)
    for y in range(3):
        for v in (0, 1):
            assert mask[(ids == y) & (views == v)].sum() == 1
    assert np.array_equal(mask, oracle.query_mask(ids, views, seed=3))


def test_score_all_hand_instance():
    # two samples per (id, view) group, all at the group's angle; the
    # cross-view neighbour of every sample is the other identity
    angle = {(0, 0): 0, (0, 1): 100, (1, 0): 90, (1, 1): 10}
    ids = np.repeat([0, 1], 4)
    views = np.tile([0, 0, 1, 1], 2)
    theta = np.radians([angle[(y, v)] for y, v in zip(ids, views)])
    emb = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    got = oracle.score_all(emb, ids, views, split_seed=0)
    # ALL: flags [1,0,0,1] for the queries at 0 and 100 degrees,
    # [1,0,1,0] for those at 10 and 90 degrees
    expected = {
        "ALL": (1.0, (0.75 + 5 / 6) / 2, (0.5 + 2 / 3) / 2, 4),
        "A<->A": (1.0, 1.0, 1.0, 2),
        "G<->G": (1.0, 1.0, 1.0, 2),
        "A<->G": (0.0, 0.5, 0.5, 4),
        "A->G": (0.0, 0.5, 0.5, 2),
        "G->A": (0.0, 0.5, 0.5, 2),
    }
    for protocol, (rank1, m_ap, m_inp, queries) in expected.items():
        r = got[protocol]
        assert (r["rank1"], r["num_queries"], r["num_excluded"]) == (rank1, queries, 0)
        assert r["mAP"] == pytest.approx(m_ap)
        assert r["mINP"] == pytest.approx(m_inp)
