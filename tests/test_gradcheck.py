"""Finite-difference checker: helpers and whole-model checks."""

import numpy as np
import pytest

from dtst.data import GenConfig, batch_arrays, generate_dataset
from dtst.errors import DomainError
from dtst.gradcheck import check_model_gradients, relative_error
from dtst.model import ModelConfig, init_params
from dtst.selector import SelectorConfig


def test_relative_error_basics():
    assert relative_error([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert relative_error([1.0, 0.0], [0.0, 1.0]) == np.sqrt(2)
    # both sides at rounding-noise level count as agreeing
    assert relative_error([1e-9, -1e-9], [0.0, 2e-9]) == 0.0
    # one genuinely nonzero side still registers
    assert relative_error([1.0, 0.0], [0.0, 0.0]) == 1.0


def _check(selector, max_coords=6):
    cfg = ModelConfig(num_identities=4, num_blocks=2, embed_dim=8,
                      num_attn_heads=2, patch_grid=(2, 2), patch_dim=3,
                      selector=selector)
    gen = GenConfig(num_ids=4, samples_per_id_per_view=1, grid=(2, 2),
                    patch_dim=3, k_sig=2, seed=0)
    x, y, v = batch_arrays(generate_dataset(gen)[:3])
    params = init_params(cfg, seed=1)
    return cfg, params, check_model_gradients(cfg, params, x, y, v, max_coords=max_coords)


def test_model_gradients_without_selector():
    cfg, params, results = _check(selector=None)
    assert {r.name for r in results} == set(params)
    assert all(r.ok for r in results), [(r.name, r.rel_err) for r in results]


def test_model_gradients_with_selector_both_positions():
    for position in ("last", "second_to_last"):
        sel = SelectorConfig(k=2, position=position, noise_enabled=False)
        cfg, params, results = _check(selector=sel)
        assert {r.name for r in results} == set(params)
        assert all(r.ok for r in results), \
            [(r.name, r.rel_err) for r in results if not r.ok]


def test_max_coords_bounds_work():
    cfg, params, results = _check(selector=None, max_coords=2)
    assert all(r.ok for r in results)
    # full check on a single small parameter agrees with the sampled one
    assert len(results) == len(params)
    # every perturbed coordinate is restored in place
    fresh = init_params(cfg, seed=1)
    assert all(np.array_equal(p.data, fresh[n].data) for n, p in params.items())


@pytest.mark.parametrize("coord_seed", [-1, 1.5, None])
def test_a_coordinate_seed_must_be_a_non_negative_integer(coord_seed):
    cfg = ModelConfig(num_identities=4, num_blocks=1, embed_dim=8, num_attn_heads=2,
                      patch_grid=(2, 2), patch_dim=3)
    x, y, v = batch_arrays(generate_dataset(GenConfig(num_ids=4, samples_per_id_per_view=1,
                                                      grid=(2, 2), patch_dim=3, k_sig=2))[:2])
    with pytest.raises(DomainError, match="coordinate seed must be an integer >= 0"):
        check_model_gradients(cfg, init_params(cfg, seed=1), x, y, v, max_coords=1,
                              coord_seed=coord_seed)
