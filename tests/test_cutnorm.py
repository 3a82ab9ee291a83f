import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab import engine
from boxlab.boxnorm import box_norm
from boxlab.cutnorm import CutSet, cut_norm, cut_value, faces_of
from boxlab.errors import MalformedProblem, ShapeMismatch
from boxlab.spaces import edge_function, make_system

from oracles import cut_norm_brute

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def uniform_system(sizes, edges):
    return make_system([np.ones(z) / z for z in sizes], edges)


def random_2d(seed, max_atoms=3, uniform=False):
    rng = np.random.Generator(np.random.Philox(key=seed))
    z0, z1 = int(rng.integers(1, max_atoms + 1)), int(rng.integers(1, max_atoms + 1))
    if uniform:
        sys_ = uniform_system([z0, z1], [(0, 1)])
    else:
        sys_ = make_system(
            [rng.uniform(0.1, 1, size=z0), rng.uniform(0.1, 1, size=z1)], [(0, 1)]
        )
    f = edge_function(sys_, (0, 1), rng.uniform(-1, 1, size=(z0, z1)))
    return sys_, f


class TestFaces:
    def test_doubleton(self):
        assert faces_of((0, 1)) == ((0,), (1,))

    def test_tripleton_sorted(self):
        assert faces_of((0, 2, 5)) == ((0, 2), (0, 5), (2, 5))


class TestCutValue:
    def test_hand_value(self):
        sys_ = uniform_system([2, 2], [(0, 1)])
        f = edge_function(sys_, (0, 1), [[1.0, -1.0], [-1.0, 1.0]])
        # keep row 0 and column 0: only cell (0, 0) with weight 1/4.
        val = cut_value(sys_, (0, 1), f, CutSet((0, 1), (0b01, 0b01)))
        assert math.isclose(val, 0.25, rel_tol=1e-15)
        # keep everything: total mean is 0.
        val = cut_value(sys_, (0, 1), f, CutSet((0, 1), (0b11, 0b11)))
        assert val == 0.0
        # keep nothing on one face: empty intersection.
        val = cut_value(sys_, (0, 1), f, CutSet((0, 1), (0b00, 0b11)))
        assert val == 0.0

    def test_mask_out_of_range(self):
        sys_ = uniform_system([2, 2], [(0, 1)])
        f = edge_function(sys_, (0, 1), np.ones((2, 2)))
        with pytest.raises(ShapeMismatch):
            cut_value(sys_, (0, 1), f, CutSet((0, 1), (4, 0)))
        with pytest.raises(ShapeMismatch):
            cut_value(sys_, (0, 1), f, CutSet((0, 1), (0,)))

    @given(seeds)
    @settings(max_examples=20)
    def test_witness_value_matches_norm(self, seed):
        sys_, f = random_2d(seed)
        res = cut_norm(sys_, (0, 1), f, mode="exact")
        replay = cut_value(sys_, (0, 1), f, res.witness)
        assert math.isclose(abs(replay), res.value, rel_tol=1e-12, abs_tol=1e-15)


class TestCutNormExact:
    @given(seeds)
    @settings(max_examples=25)
    def test_matches_brute_2d(self, seed):
        sys_, f = random_2d(seed)
        want = cut_norm_brute(sys_, (0, 1), f.values)
        got = cut_norm(sys_, (0, 1), f, mode="exact").value
        assert abs(want - got) <= 1e-10 * max(1.0, want)

    @given(seeds)
    @settings(max_examples=5)
    def test_matches_brute_3d(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        sys_ = uniform_system([2, 2, 2], [(0, 1, 2)])
        f = edge_function(sys_, (0, 1, 2), rng.uniform(-1, 1, size=(2, 2, 2)))
        want = cut_norm_brute(sys_, (0, 1, 2), f.values)
        got = cut_norm(sys_, (0, 1, 2), f, mode="exact").value
        assert abs(want - got) <= 1e-10 * max(1.0, want)

    def test_alternating_quarter(self):
        sys_ = uniform_system([2, 2], [(0, 1)])
        f = edge_function(sys_, (0, 1), [[1.0, -1.0], [-1.0, 1.0]])
        res = cut_norm(sys_, (0, 1), f, mode="exact")
        assert res.value == 0.25
        assert res.mode == "exact"

    def test_singleton_convention(self):
        sys_ = make_system([[1.0, 1.0]], [(0,)])
        f = edge_function(sys_, (0,), [2.0, -1.0])
        res = cut_norm(sys_, (0,), f)
        assert math.isclose(res.value, 0.5, rel_tol=1e-15)
        assert res.singleton_convention
        assert res.mode == "exact"

    @given(seeds)
    @settings(max_examples=15)
    def test_bounded_by_two_replica_box_norm(self, seed):
        sys_, f = random_2d(seed)
        cut = cut_norm(sys_, (0, 1), f, mode="exact").value
        box = box_norm(sys_, (0, 1), f, 2).value
        assert cut <= box + 1e-9 * max(1.0, box)


class TestCutNormHeuristic:
    @given(seeds)
    @settings(max_examples=20)
    def test_lower_bounds_exact(self, seed):
        sys_, f = random_2d(seed)
        exact = cut_norm(sys_, (0, 1), f, mode="exact").value
        heur = cut_norm(sys_, (0, 1), f, mode="heuristic", restarts=16, seed=0)
        assert heur.value <= exact + 1e-10 * max(1.0, exact)
        assert heur.mode == "heuristic"

    def test_deterministic(self):
        sys_, f = random_2d(11)
        a = cut_norm(sys_, (0, 1), f, mode="heuristic", restarts=8, seed=4)
        b = cut_norm(sys_, (0, 1), f, mode="heuristic", restarts=8, seed=4)
        assert a.value == b.value and a.witness == b.witness

    def test_auto_degrades_on_tiny_cap(self):
        sys_, f = random_2d(3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "COMBO_CAP", 2)
            res = cut_norm(sys_, (0, 1), f, mode="auto")
        assert res.mode == "heuristic"

    def test_unknown_mode(self):
        # One- and two-coordinate edges alike: the singleton shortcut must
        # not skip the mode check.
        sys_, f = random_2d(3)
        g = edge_function(sys_, (0,), np.full(sys_.edge_shape((0,)), 0.5))
        for e, fn in (((0,), g), ((0, 1), f)):
            with pytest.raises(ShapeMismatch):
                cut_norm(sys_, e, fn, mode="banana")

    @pytest.mark.parametrize("mode", ["auto", "exact", "heuristic"])
    @pytest.mark.parametrize("restarts,seed", [(32, -1), (32, 1 << 128), (0, 0)])
    def test_bad_restarts_or_seed(self, mode, restarts, seed):
        # Refused on every edge and in every mode, whether or not a heuristic runs.
        sys_, f = random_2d(3)
        g = edge_function(sys_, (0,), np.full(sys_.edge_shape((0,)), 0.5))
        for e, fn in (((0,), g), ((0, 1), f)):
            with pytest.raises(MalformedProblem):
                cut_norm(sys_, e, fn, mode=mode, restarts=restarts, seed=seed)


class TestResultShape:
    def test_to_dict_masks_hex(self):
        sys_, f = random_2d(2)
        d = cut_norm(sys_, (0, 1), f, mode="exact").to_dict()
        assert set(d) == {
            "value", "witness", "mode", "combos", "restarts_used",
            "singleton_convention",
        }
        assert all(m.startswith("0x") for m in d["witness"]["masks"])
