import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab.boxnorm import box_norm
from boxlab.errors import BadSpec
from boxlab.generators import (
    GenSpec,
    generate,
    predicted_product_box_norm,
    uniform_complete_system,
)
from boxlab.pseudo import linear_forms_deviation
from boxlab.spaces import expectation

seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestGenSpecValidation:
    def test_kind_checked(self):
        with pytest.raises(BadSpec):
            GenSpec(3, 2, 2, "sparkles").validate()

    def test_r_range(self):
        with pytest.raises(BadSpec):
            GenSpec(3, 1, 2, "ones").validate()
        with pytest.raises(BadSpec):
            GenSpec(3, 4, 2, "ones").validate()

    def test_atoms_list_length(self):
        with pytest.raises(BadSpec):
            GenSpec(3, 2, (2, 2), "ones").sizes()
        assert GenSpec(3, 2, (2, 3, 4), "ones").sizes() == (2, 3, 4)
        assert GenSpec(3, 2, 5, "ones").sizes() == (5, 5, 5)

    def test_seed_range(self):
        for seed in (-1, 1 << 128):
            with pytest.raises(BadSpec):
                GenSpec(3, 2, 2, "ones", seed=seed).validate()
        GenSpec(3, 2, 2, "ones", seed=(1 << 128) - 1).validate()

    def test_epsilon_range(self):
        with pytest.raises(BadSpec):
            GenSpec(3, 2, 2, "perturbed_ones", epsilon=1.0).validate()
        GenSpec(3, 2, 2, "perturbed_ones", epsilon=0.99).validate()

    def test_weight_band(self):
        with pytest.raises(BadSpec):
            GenSpec(3, 2, 2, "product_weights", weight_low=0.0).validate()
        with pytest.raises(BadSpec):
            GenSpec(3, 2, 2, "product_weights",
                    weight_low=2.0, weight_high=1.0).validate()

    def test_scale_positive(self):
        with pytest.raises(BadSpec):
            GenSpec(3, 2, 2, "random_nonneg", scale=0.0).validate()


class TestUniformCompleteSystem:
    def test_edges_are_all_r_subsets(self):
        sys_ = uniform_complete_system([2, 2, 2, 2], 3)
        assert sys_.edges == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
        for sp in sys_.spaces:
            assert np.allclose(sp.weights, 0.5)


class TestGenerate:
    @given(seeds)
    @settings(max_examples=10)
    def test_bit_identical_regeneration(self, seed):
        spec = GenSpec(3, 2, 2, "random_signed", seed=seed)
        _, fam_a, _ = generate(spec)
        _, fam_b, _ = generate(spec)
        for e in fam_a:
            assert np.array_equal(fam_a[e].values, fam_b[e].values)

    def test_different_seeds_differ(self):
        _, a, _ = generate(GenSpec(3, 2, 2, "random_signed", seed=0))
        _, b, _ = generate(GenSpec(3, 2, 2, "random_signed", seed=1))
        assert any(not np.array_equal(a[e].values, b[e].values) for e in a)

    def test_ones(self):
        sys_, fam, meta = generate(GenSpec(3, 2, 3, "ones"))
        for e, fn in fam.items():
            assert np.all(fn.values == 1.0)
        assert meta["spec"]["kind"] == "ones"
        assert linear_forms_deviation(sys_, fam, 2).eta == 0.0

    def test_perturbed_zero_epsilon_is_ones(self):
        _, fam, _ = generate(GenSpec(3, 2, 2, "perturbed_ones", epsilon=0.0, seed=4))
        for fn in fam.values():
            assert np.all(fn.values == 1.0)

    @given(seeds)
    @settings(max_examples=10)
    def test_perturbed_recentred_and_nonnegative(self, seed):
        sys_, fam, _ = generate(
            GenSpec(3, 2, 3, "perturbed_ones", epsilon=0.3, seed=seed)
        )
        for e, fn in fam.items():
            assert float(np.min(fn.values)) >= 0.0
            assert abs(expectation(sys_, e, fn) - 1.0) <= 1e-13

    @given(seeds)
    @settings(max_examples=10)
    def test_product_weights_mean_one_and_meta(self, seed):
        sys_, fam, meta = generate(
            GenSpec(3, 2, 3, "product_weights", seed=seed)
        )
        assert "vertex_weights" in meta
        for e, fn in fam.items():
            assert abs(expectation(sys_, e, fn) - 1.0) <= 1e-12
            assert float(np.min(fn.values)) > 0.0

    @given(seeds)
    @settings(max_examples=8)
    def test_product_weights_closed_form_norm(self, seed):
        sys_, fam, meta = generate(
            GenSpec(3, 2, 3, "product_weights", seed=seed)
        )
        for e in sys_.edges:
            for ell in (2, 4):
                want = predicted_product_box_norm(
                    sys_, meta["vertex_weights"], e, ell
                )
                got = box_norm(sys_, e, fam[e], ell).value
                assert abs(want - got) <= 1e-9 * max(1.0, want)

    def test_random_nonneg_stays_in_range(self):
        _, fam, _ = generate(GenSpec(3, 2, 3, "random_nonneg", scale=0.7, seed=2))
        for fn in fam.values():
            assert float(np.min(fn.values)) >= 0.0
            assert float(np.max(fn.values)) <= 0.7

    def test_random_signed_stays_in_range(self):
        _, fam, _ = generate(GenSpec(4, 3, 2, "random_signed", scale=1.2, seed=2))
        for fn in fam.values():
            assert float(np.max(np.abs(fn.values))) <= 1.2

    def test_three_uniform_shape(self):
        sys_, fam, _ = generate(GenSpec(4, 3, 2, "ones"))
        assert len(sys_.edges) == 4
        assert all(len(e) == 3 for e in sys_.edges)
        assert set(fam) == set(sys_.edges)


class TestPredictedNorm:
    def test_constant_factors_norm_one(self):
        sys_ = uniform_complete_system([2, 2, 2], 2)
        weights = [[1.0, 1.0]] * 3
        for e in sys_.edges:
            assert math.isclose(
                predicted_product_box_norm(sys_, weights, e, 2), 1.0, rel_tol=1e-14
            )

    def test_zero_factor_gives_zero(self):
        sys_ = uniform_complete_system([2, 2, 2], 2)
        weights = [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]
        assert predicted_product_box_norm(sys_, weights, (0, 1), 2) == 0.0
