"""Synthetic dataset generator, PK batching, and text export round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtst.data import (GenConfig, Sample, batch_arrays, export_dataset,
                       export_embeddings, generate_dataset,
                       identity_prototypes, import_dataset, import_embeddings,
                       pk_batch)
from dtst.errors import ConfigError, DomainError, SamplingError
from dtst.model import VIEW_AERIAL, VIEW_GROUND


def tiny_cfg(**kw):
    base = dict(num_ids=4, samples_per_id_per_view=3, grid=(2, 2),
                patch_dim=3, k_sig=2, seed=0)
    base.update(kw)
    return GenConfig(**base)


def test_dataset_counts_and_balance():
    cfg = tiny_cfg()
    data = generate_dataset(cfg)
    assert len(data) == 4 * 2 * 3
    for y in range(4):
        for v in (VIEW_AERIAL, VIEW_GROUND):
            assert sum(1 for s in data if s.y == y and s.v == v) == 3
    for s in data:
        assert s.x.shape == (2, 2, 3)
        assert len(s.signal_slots) == 2
        assert all(0 <= i < 4 for i in s.signal_slots)
        assert list(s.signal_slots) == sorted(s.signal_slots)


def test_same_seed_is_bit_identical():
    a = generate_dataset(tiny_cfg())
    b = generate_dataset(tiny_cfg())
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.x, sb.x)
        assert (sa.y, sa.v, sa.signal_slots) == (sb.y, sb.v, sb.signal_slots)
    c = generate_dataset(tiny_cfg(sample_seed=99))
    assert not all(np.array_equal(sa.x, sc.x) for sa, sc in zip(a, c))


def test_shared_prototypes_across_splits():
    train = tiny_cfg(sample_seed=1)
    test = tiny_cfg(sample_seed=2)
    pa, oa = identity_prototypes(train)
    pb, ob = identity_prototypes(test)
    assert np.array_equal(pa, pb)
    assert np.array_equal(oa[VIEW_AERIAL], ob[VIEW_AERIAL])


def test_planted_signal_statistics():
    """Monte-Carlo generator sanity: signal slots carry prototype + view
    offset, other slots are pure unit noise. Checked at >= 3 sigma."""
    cfg = GenConfig(num_ids=2, samples_per_id_per_view=500, grid=(2, 2),
                    patch_dim=4, k_sig=1, noise_std=0.5,
                    view_offset_scale=1.0, seed=5)
    protos, offsets = identity_prototypes(cfg)
    data = generate_dataset(cfg)

    signal_resid = []   # (x - proto - offset) at the planted slot, std 0.5
    background = []     # untouched slots, unit normal
    for s in data:
        flat = s.x.reshape(4, 4)
        slot = s.signal_slots[0]
        signal_resid.append(flat[slot] - protos[s.y] - offsets[s.v])
        background.append(np.delete(flat, slot, axis=0))
    signal_resid = np.concatenate(signal_resid)
    background = np.concatenate(background).ravel()

    def check_moments(x, std):
        n = x.size
        assert abs(x.mean()) < 3 * std / np.sqrt(n)
        # var of the sample variance of a normal is ~ 2 sigma^4 / n
        assert abs(x.var() - std ** 2) < 3 * np.sqrt(2.0 / n) * std ** 2

    check_moments(signal_resid, 0.5)
    check_moments(background, 1.0)


def test_gen_config_validation():
    with pytest.raises(ConfigError, match="k_sig"):
        tiny_cfg(k_sig=4)
    with pytest.raises(ConfigError, match="k_sig"):
        tiny_cfg(k_sig=0)
    with pytest.raises(ConfigError, match="positive"):
        tiny_cfg(num_ids=0)
    with pytest.raises(ConfigError, match="nonnegative"):
        tiny_cfg(noise_std=-1.0)


def test_pk_batch_composition():
    data = generate_dataset(tiny_cfg())
    rng = np.random.default_rng(3)
    batch = pk_batch(data, p=3, k_inst=4, rng=rng)
    assert len(batch) == 12
    counts = {}
    for s in batch:
        counts[s.y] = counts.get(s.y, 0) + 1
    assert len(counts) == 3
    assert all(c == 4 for c in counts.values())


def test_pk_batch_insufficient_identities():
    data = generate_dataset(tiny_cfg())
    with pytest.raises(SamplingError, match="need 5 identities"):
        pk_batch(data, p=5, k_inst=2, rng=np.random.default_rng(0))
    with pytest.raises(SamplingError):
        pk_batch(data, p=2, k_inst=7, rng=np.random.default_rng(0))


def test_pk_batch_covers_all_identities_over_time():
    data = generate_dataset(tiny_cfg())
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(20):
        seen.update(s.y for s in pk_batch(data, p=2, k_inst=2, rng=rng))
    assert seen == {0, 1, 2, 3}


def test_batch_arrays_stacking():
    data = generate_dataset(tiny_cfg())[:5]
    x, y, v = batch_arrays(data)
    assert x.shape == (5, 2, 2, 3)
    assert y.dtype == np.int64 and v.dtype == np.int64
    assert np.array_equal(x[2], data[2].x)
    assert y[2] == data[2].y and v[2] == data[2].v


def test_dataset_export_round_trip(tmp_path):
    data = generate_dataset(tiny_cfg())
    path = tmp_path / "data.txt"
    export_dataset(path, data)
    back = import_dataset(path)
    assert len(back) == len(data)
    for a, b in zip(data, back):
        assert np.array_equal(a.x, b.x)  # base64 of raw float64 is lossless
        assert (a.y, a.v, a.signal_slots) == (b.y, b.v, b.signal_slots)


def test_dataset_import_reports_bad_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("id=0 view=sideways signal=1 shape=1,1,2 x=AAAA\n")
    with pytest.raises(DomainError, match=r":1:"):
        import_dataset(path)
    # a field with no '=' on the second line
    good = "id=0 view=aerial signal=0 shape=1,1,1 x=AAAAAAAAAAA=\n"
    path.write_text(good + "id=0 view=aerial signal=0 shape=1,1,1 AAAAAAAAAAA=\n")
    with pytest.raises(DomainError, match=r"bad\.txt:2: bad sample record"):
        import_dataset(path)
    emb = tmp_path / "emb.txt"
    emb.write_text("id=1 view=ground x=AAAAAAAAAAA=\nid=1 view ground x=AAAAAAAAAAA=\n")
    with pytest.raises(DomainError, match=r"emb\.txt:2: bad embedding record"):
        import_embeddings(emb)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 6), d=st.integers(1, 5), seed=st.integers(0, 1000))
def test_embeddings_round_trip(tmp_path_factory, n, d, seed):
    rng = np.random.default_rng(seed)
    embs = rng.normal(size=(n, d))
    ids = rng.integers(0, 10, size=n)
    views = rng.integers(0, 2, size=n)
    path = tmp_path_factory.mktemp("emb") / "emb.txt"
    export_embeddings(path, embs, ids, views)
    e2, i2, v2 = import_embeddings(path)
    assert np.array_equal(e2, embs)
    assert np.array_equal(i2, ids)
    assert np.array_equal(v2, views)


def test_sample_dataclass_fields():
    s = Sample(x=np.zeros((1, 1, 2)), y=3, v=VIEW_GROUND, signal_slots=(0,))
    assert s.y == 3 and s.v == VIEW_GROUND
